"""Decision-game tests: feature extraction, payoff construction,
equilibrium selection, and action-to-directive translation.

Payoff numbers are recomputed by hand in comments next to each
assertion; the equilibrium solver is cross-checked against an
independent set-based enumerator on randomized games.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import car, ped
from sharedspace.forces import DriveTo, SetSpeed
from sharedspace.game import (
    ACTION_ORDER,
    CAR_ACTIONS,
    PEDESTRIAN_ACTIONS,
    Action,
    FeatureVector,
    IllegalActionError,
    PairContext,
    PayoffGame,
    _base_value,
    _feature_term,
    actions_for,
    angle_bucket,
    apply_action,
    build_payoff_matrix,
    extract_features,
    follower_best_response,
    solve_spne,
)
from sharedspace.geometry import Vec2
from sharedspace.params import GameParams, SfmParams
from sharedspace.scene import AgentKind


SFM = SfmParams()
GP = GameParams()


# ---------------------------------------------------------------------------
# Angle bucket
# ---------------------------------------------------------------------------


class TestAngleBucket:
    @pytest.mark.parametrize(
        "theta, expected",
        [
            (0.0, 8),
            (15.9, 8),
            (16.0, 7),
            (42.0, 7),
            (42.1, 6),
            (65.0, 6),
            (65.1, 5),
            (90.0, 5),
            (90.1, 1),
            (180.0, 1),
            (269.9, 1),
            (270.0, 5),
            (294.9, 5),
            (295.0, 6),
            (317.9, 6),
            (318.0, 7),
            (344.0, 7),
            (344.1, 8),
            (360.0, 8),
            (-10.0, 8),  # wraps to 350
            (383.0, 7),  # wraps to 23
        ],
    )
    def test_boundaries(self, theta: float, expected: int) -> None:
        assert angle_bucket(theta) == expected

    @given(st.floats(min_value=0.0, max_value=360.0, allow_nan=False))
    def test_range_and_mirror_symmetry(self, theta: float) -> None:
        b = angle_bucket(theta)
        assert b in (1, 5, 6, 7, 8)
        assert angle_bucket(360.0 - theta) == b


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


class TestExtractFeatures:
    def test_car_subject_full_vector(self) -> None:
        # Car at origin heading +x at 2 m/s, stopping for p9 and p1,
        # two active interactions, following c7, three give-ways.
        subject = car(
            "c1",
            Vec2(0.0, 0.0),
            Vec2(1.0, 0.0),
            speed=2.0,
            currently_stopping_for=frozenset({"p9", "p1"}),
            active_interactions=2,
            following_car_id="c7",
            giveway_count=3,
        )
        # Pedestrian at (3, 4): euclidean 5, manhattan 7, walking -y at
        # 2 m/s (fast walker, below car cruise threshold).
        competitor = ped("p1", Vec2(3.0, 4.0), Vec2(0.0, -1.0), speed=2.0, max_speed=2.0)

        fv = extract_features(subject, competitor, SFM, GP)

        assert fv.own_speed == pytest.approx(2.0)  # cars report raw speed
        assert fv.competitor_speed == 1.0  # 2.0 < 5.5
        assert fv.noai == 2.0
        # p1 removed from the stopping set, p9 remains.
        assert fv.car_stopped == 1.0
        assert fv.car_following == 1.0
        assert fv.car_followed == 0.0
        assert fv.giveway_nr == 3.0
        # Bearing of the car seen from the pedestrian's heading (0,-1):
        # offset (-3,-4) sits 36.87 degrees clockwise, i.e. 323.13.
        assert fv.angle == 7.0
        assert fv.min_dist == pytest.approx(8.0 - 5.0)
        # manhattan 7 < 8 and 5 - 7 <= detour slack 2.
        assert fv.pedestrian_min_dist == pytest.approx(5.0)
        # manhattan 7 < 10 and the pedestrian walks faster than 1.7.
        assert fv.car_min_dist == pytest.approx(7.0)

    def test_ped_subject_full_vector(self) -> None:
        subject = ped("p1", Vec2(10.0, 0.0), Vec2(1.0, 0.0), speed=1.8, max_speed=1.8)
        competitor = car(
            "c1",
            Vec2(0.0, 0.0),
            Vec2(1.0, 0.0),
            speed=6.0,
            max_speed=6.0,
            currently_stopping_for=frozenset({"p1"}),
            active_interactions=1,
            followed_by_car_id="c2",
        )

        fv = extract_features(subject, competitor, SFM, GP)

        assert fv.own_speed == 1.0  # 1.8 > fast-walking threshold 1.7
        assert fv.competitor_speed == 0.0  # 6.0 is not below 5.5
        assert fv.noai == 1.0
        # For a pedestrian subject the car's stopping set counts even
        # when it is stopping for this very pedestrian.
        assert fv.car_stopped == 1.0
        assert fv.car_following == 0.0
        assert fv.car_followed == 1.0
        assert fv.giveway_nr == 0.0
        assert fv.angle == 8.0  # dead ahead of the car
        assert fv.min_dist == 0.0  # distance 10 >= 8
        assert fv.pedestrian_min_dist == 0.0  # manhattan 10 not < 8
        assert fv.car_min_dist == 0.0  # manhattan 10 not < reach 10

    def test_ped_speed_threshold_is_strict(self) -> None:
        subject = ped("p1", Vec2(5.0, 0.0), Vec2(1.0, 0.0), speed=1.7, max_speed=1.7)
        fv = extract_features(subject, car("c1"), SFM, GP)
        assert fv.own_speed == 0.0

    def test_competitor_cruise_threshold_is_strict(self) -> None:
        subject = ped("p1", Vec2(5.0, 0.0), Vec2(1.0, 0.0))
        fv = extract_features(subject, car("c1", speed=5.5, max_speed=6.0), SFM, GP)
        assert fv.competitor_speed == 0.0
        fv = extract_features(subject, car("c1", speed=5.4, max_speed=6.0), SFM, GP)
        assert fv.competitor_speed == 1.0

    def test_car_stopping_only_for_competitor_does_not_count(self) -> None:
        subject = car("c1", currently_stopping_for=frozenset({"p1"}))
        competitor = ped("p1", Vec2(5.0, 0.0))
        fv = extract_features(subject, competitor, SFM, GP)
        assert fv.car_stopped == 0.0

    def test_detour_slack_gates_pedestrian_min_dist(self) -> None:
        # Diagonal offset (3, 4): euclidean 5, manhattan 7, slack 2 -> set.
        fv = extract_features(car("c1"), ped("p1", Vec2(3.0, 4.0)), SFM, GP)
        assert fv.pedestrian_min_dist == pytest.approx(5.0)
        # Axis-aligned offset (7, 0): slack 0 <= 2 -> still set.
        fv = extract_features(car("c1"), ped("p1", Vec2(7.0, 0.0)), SFM, GP)
        assert fv.pedestrian_min_dist == pytest.approx(7.0)
        # Offset (4.2, 5.6): euclidean 7, manhattan 9.8, gap 2.8 > 2.
        fv = extract_features(car("c1"), ped("p1", Vec2(4.2, 5.6)), SFM, GP)
        assert fv.pedestrian_min_dist == 0.0

    def test_car_min_dist_requires_fast_pedestrian(self) -> None:
        slow = ped("p1", Vec2(3.0, 4.0), speed=1.0, max_speed=1.2)
        assert extract_features(car("c1"), slow, SFM, GP).car_min_dist == 0.0
        fast = ped("p1", Vec2(3.0, 4.0), speed=1.8, max_speed=1.8)
        assert extract_features(car("c1"), fast, SFM, GP).car_min_dist == pytest.approx(7.0)


# ---------------------------------------------------------------------------
# Payoff construction
# ---------------------------------------------------------------------------

# Leader's view of the follower (car looking at a pedestrian).
FV_LEADER = FeatureVector(
    own_speed=2.0,
    competitor_speed=1.0,
    noai=2.0,
    car_stopped=1.0,
    car_following=1.0,
    angle=7.0,
    car_followed=0.0,
    min_dist=3.0,
    giveway_nr=3.0,
    pedestrian_min_dist=5.0,
    car_min_dist=7.0,
)
# Follower's view of the leader (pedestrian looking at a car).
FV_FOLLOWER = FeatureVector(
    own_speed=1.0,
    competitor_speed=0.0,
    noai=1.0,
    car_stopped=1.0,
    car_following=0.0,
    angle=5.0,
    car_followed=1.0,
    min_dist=0.0,
    giveway_nr=0.0,
    pedestrian_min_dist=0.0,
    car_min_dist=4.0,
)


def _one_follower_game(gp: GameParams, paths_cross: bool = True) -> PayoffGame:
    leader = car("c1")
    follower = ped("p1", Vec2(10.0, 0.0))
    contexts = {
        "p1": PairContext(
            leader_view=FV_LEADER, follower_view=FV_FOLLOWER, paths_cross=paths_cross
        )
    }
    return build_payoff_matrix(leader, [follower], contexts, gp)


class TestPayoffMatrix:
    def test_action_sets(self) -> None:
        assert actions_for(AgentKind.CAR) == (Action.CONTINUE, Action.DECELERATE)
        assert actions_for(AgentKind.PEDESTRIAN) == (
            Action.CONTINUE,
            Action.DECELERATE,
            Action.DEVIATE,
        )
        assert Action.DEVIATE not in CAR_ACTIONS
        assert set(PEDESTRIAN_ACTIONS) == set(Action)

    def test_hand_computed_tables_default_regime(self) -> None:
        game = _one_follower_game(GameParams())
        lu, fu = game.leader_utility, game.follower_utility["p1"]
        C, D, V = Action.CONTINUE, Action.DECELERATE, Action.DEVIATE

        # The follower deviates under either leader action (19 beats 16
        # and continue), so the leader's table holds one entry for each.
        # Car decelerate term: -11*2 + 11*1 + 3*2 + 2*1 + 1*7 - 1*3 = 1.
        assert lu[(D, (V,))] == pytest.approx(2.0 + 1.0, rel=1e-12)
        # Continue carries no feature term.
        assert lu[(C, (V,))] == pytest.approx(4.0, rel=1e-12)

        # Ped decelerate term: 11*1 - 11*0 - 2*1 + 1*5 + 0*1 = 14.
        assert fu[(C, D)] == pytest.approx(2.0 + 14.0, rel=1e-12)
        assert fu[(D, D)] == pytest.approx(16.0, rel=1e-12)
        # Ped deviate term: 11*1 - 11*0 + 1*5 - 0*1 = 16.
        assert fu[(C, V)] == pytest.approx(3.0 + 16.0, rel=1e-12)
        assert fu[(D, V)] == pytest.approx(19.0, rel=1e-12)
        # Mutual continue hits the follower too.
        assert fu[(C, C)] == pytest.approx(4.0 - 100.0, rel=1e-12)
        assert fu[(D, C)] == pytest.approx(4.0, rel=1e-12)

    def test_hand_computed_tables_campus_regime(self) -> None:
        gp = GameParams(regime="dut")
        game = _one_follower_game(gp)
        lu, fu = game.leader_utility, game.follower_utility["p1"]
        C, D, V = Action.CONTINUE, Action.DECELERATE, Action.DEVIATE

        # Car decelerate term flips the stopped sign and swaps the
        # distance feature: -22 + 11 + 6 - 2 + 7 - 5 = -5. The follower
        # deviates (15 beats 12 and continue).
        assert lu[(D, (V,))] == pytest.approx(2.0 - 5.0, rel=1e-12)
        # Ped decelerate gains -1 * car_min_dist: 14 - 4 = 10.
        assert fu[(C, D)] == pytest.approx(2.0 + 10.0, rel=1e-12)
        # Ped deviate gains the same: 16 - 4 = 12.
        assert fu[(C, V)] == pytest.approx(3.0 + 12.0, rel=1e-12)

    def test_no_penalty_without_crossing_paths(self) -> None:
        game = _one_follower_game(GameParams(), paths_cross=False)
        assert game.leader_utility[(Action.CONTINUE, (Action.DEVIATE,))] == pytest.approx(4.0)
        assert game.follower_utility["p1"][(Action.CONTINUE, Action.CONTINUE)] == pytest.approx(4.0)

    def test_penalty_adds_per_crossing_follower(self) -> None:
        # Continuing is worth 104, so every follower continues even
        # under the mutual penalty (4 beats 3 and 2).
        gp = GameParams(
            g_own_speed=0.0,
            g_competitor_speed=0.0,
            g_angle=0.0,
            g_noai=0.0,
            g_stopped=0.0,
            g_distance=0.0,
            base_continue=104.0,
        )
        leader = car("c1")
        followers = [ped("p1", Vec2(10.0, 0.0)), car("c2", Vec2(-10.0, 0.0))]
        C, D = Action.CONTINUE, Action.DECELERATE
        for cross_ped, cross_car, penalty in (
            (True, True, -200.0), (True, False, -100.0), (False, True, -100.0), (False, False, 0.0)
        ):
            contexts = {
                "p1": PairContext(FV_LEADER, FV_FOLLOWER, paths_cross=cross_ped),
                "c2": PairContext(FV_LEADER, FV_LEADER, paths_cross=cross_car),
            }
            game = build_payoff_matrix(leader, followers, contexts, gp)
            assert follower_best_response(game, C) == (C, C)
            assert game.leader_utility[(C, (C, C))] == pytest.approx(104.0 + penalty)
            # Each follower is only penalized for its own mutual continue.
            assert game.follower_utility["p1"][(C, C)] == pytest.approx(104.0 - 100.0 * cross_ped)
            assert game.follower_utility["c2"][(C, C)] == pytest.approx(104.0 - 100.0 * cross_car)
            assert game.follower_utility["c2"][(C, D)] == pytest.approx(2.0)

    def test_table_completeness(self) -> None:
        leader = car("c1")
        followers = [ped("p1", Vec2(10.0, 0.0)), car("c2", Vec2(-10.0, 0.0))]
        contexts = {
            "p1": PairContext(FV_LEADER, FV_FOLLOWER, paths_cross=True),
            "c2": PairContext(FV_LEADER, FV_LEADER, paths_cross=False),
        }
        game = build_payoff_matrix(leader, followers, contexts, GP)
        assert game.leader == "c1"
        assert game.followers == ("p1", "c2")
        # One best-response profile per leader action.
        assert len(game.leader_utility) == len(game.leader_actions)
        assert len(game.follower_utility["p1"]) == 2 * 3
        assert len(game.follower_utility["c2"]) == 2 * 2


def _eager_leader_utility(leader, followers, contexts, gp):
    """The leader's payoff at every joint follower profile, filled the
    way the builder once did: base plus the followers' feature terms in
    follower order, then the penalty of each crossing follower that
    continues while the leader continues."""
    follower_ids = tuple(f.id for f in followers)
    table = {}
    for la in actions_for(leader.kind):
        base = _base_value(la, gp)
        feature_sum = sum(
            _feature_term(contexts[fid].leader_view, leader.kind, la, gp) for fid in follower_ids
        )
        for profile in itertools.product(*(actions_for(f.kind) for f in followers)):
            u = base + feature_sum
            for fid, fa in zip(follower_ids, profile):
                if contexts[fid].paths_cross and la is Action.CONTINUE and fa is Action.CONTINUE:
                    u += gp.collision_penalty
            table[(la, profile)] = u
    return table


def _random_feature_vector(rng: random.Random) -> FeatureVector:
    # Whole numbers make exact payoff ties between actions common.
    values = [rng.choice([0.0, 1.0, 2.0, rng.uniform(0.0, 12.0)]) for _ in range(11)]
    return FeatureVector(*values)


class TestBestResponseTable:
    def test_entries_match_the_full_table(self) -> None:
        rng = random.Random(13)
        for _ in range(400):
            gp = GameParams(regime=rng.choice(["hbs", "dut"]))
            kinds = [rng.choice(list(AgentKind)) for _ in range(rng.randint(1, 6))]
            followers = [
                (car if kind is AgentKind.CAR else ped)(f"f{i}", Vec2(float(i), 5.0))
                for i, kind in enumerate(kinds)
            ]
            leader = rng.choice([car, ped])("L")
            contexts = {
                f.id: PairContext(
                    _random_feature_vector(rng), _random_feature_vector(rng), rng.random() < 0.5
                )
                for f in followers
            }
            game = build_payoff_matrix(leader, followers, contexts, gp)
            full = _eager_leader_utility(leader, followers, contexts, gp)
            assert len(game.leader_utility) == len(game.leader_actions)
            for la in game.leader_actions:
                key = (la, follower_best_response(game, la))
                assert game.leader_utility[key].hex() == full[key].hex()
            assert solve_spne(game) == solve_spne(dataclasses.replace(game, leader_utility=full))

    def test_twenty_followers_build_and_solve_fast(self) -> None:
        followers = [ped(f"p{i}", Vec2(float(i), 5.0)) for i in range(10)]
        followers += [car(f"c{i}", Vec2(float(i), -5.0)) for i in range(10)]
        contexts = {f.id: PairContext(FV_LEADER, FV_FOLLOWER, paths_cross=True) for f in followers}
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            game = build_payoff_matrix(car("L"), followers, contexts, GP)
            la, profile = solve_spne(game)
            best = min(best, time.perf_counter() - start)
        assert len(profile) == 20
        assert (la, profile) in game.leader_utility
        assert best < 0.05


# ---------------------------------------------------------------------------
# Equilibrium selection
# ---------------------------------------------------------------------------


def _oracle_spne(game: PayoffGame) -> tuple[Action, tuple[Action, ...]]:
    """Set-based reimplementation: collect argmax sets, break ties by
    the documented action order."""

    def best_of(actions, value):
        top = max(value(a) for a in actions)
        ties = [a for a in actions if value(a) == top]
        return min(ties, key=ACTION_ORDER.index)

    responses = {}
    for la in game.leader_actions:
        responses[la] = tuple(
            best_of(game.follower_actions[fid], lambda a: game.follower_utility[fid][(la, a)])
            for fid in game.followers
        )
    la = best_of(game.leader_actions, lambda a: game.leader_utility[(a, responses[a])])
    return la, responses[la]


def _random_raw_game(rng: random.Random) -> PayoffGame:
    n_followers = rng.randint(1, 3)
    follower_ids = tuple(f"f{i}" for i in range(n_followers))
    leader_actions = rng.choice([CAR_ACTIONS, PEDESTRIAN_ACTIONS])
    follower_actions = {
        fid: rng.choice([CAR_ACTIONS, PEDESTRIAN_ACTIONS]) for fid in follower_ids
    }
    leader_utility = {}
    for la in leader_actions:
        for profile in itertools.product(*(follower_actions[f] for f in follower_ids)):
            # Small integer payoffs force frequent exact ties.
            leader_utility[(la, profile)] = float(rng.randint(-5, 5))
    follower_utility = {
        fid: {
            (la, fa): float(rng.randint(-5, 5))
            for la in leader_actions
            for fa in follower_actions[fid]
        }
        for fid in follower_ids
    }
    return PayoffGame(
        leader="L",
        followers=follower_ids,
        leader_actions=leader_actions,
        follower_actions=follower_actions,
        leader_utility=leader_utility,
        follower_utility=follower_utility,
    )


class TestSolveSpne:
    def test_leader_prefers_continue_when_follower_yields(self) -> None:
        game = _one_follower_game(GameParams())
        # Follower best response to either leader action is deviate
        # (19 beats 16 and beats continue under the mutual penalty).
        assert follower_best_response(game, Action.CONTINUE) == (Action.DEVIATE,)
        assert follower_best_response(game, Action.DECELERATE) == (Action.DEVIATE,)
        la, profile = solve_spne(game)
        assert la is Action.CONTINUE  # leader: 4.0 beats 3.0
        assert profile == (Action.DEVIATE,)

    def test_leader_decelerates_when_braking_pays(self) -> None:
        # Slow car against a slow pedestrian head-on: the car's
        # decelerate term is -11*0.5 + 11 + 3 + 8 = 16.5, so braking
        # (18.5) dominates continuing (4.0 once the ped ducks away).
        leader_view = FeatureVector(
            own_speed=0.5,
            competitor_speed=1.0,
            noai=1.0,
            car_stopped=0.0,
            car_following=0.0,
            angle=8.0,
            car_followed=0.0,
            min_dist=0.0,
            giveway_nr=0.0,
        )
        follower_view = FeatureVector(
            own_speed=0.0,
            competitor_speed=1.0,
            noai=0.0,
            car_stopped=0.0,
            car_following=0.0,
            angle=1.0,
            car_followed=0.0,
            min_dist=0.0,
            giveway_nr=0.0,
        )
        game = build_payoff_matrix(
            car("c1"),
            [ped("p1", Vec2(10.0, 0.0))],
            {"p1": PairContext(leader_view, follower_view, paths_cross=True)},
            GameParams(),
        )
        # Ped: continue 4 (but -96 under a continuing leader),
        # decelerate -8, deviate -7.
        assert follower_best_response(game, Action.CONTINUE) == (Action.DEVIATE,)
        assert follower_best_response(game, Action.DECELERATE) == (Action.CONTINUE,)
        la, profile = solve_spne(game)
        assert la is Action.DECELERATE
        assert profile == (Action.CONTINUE,)
        assert game.leader_utility[(la, profile)] == pytest.approx(18.5)

    def test_all_equal_utilities_pick_continue(self) -> None:
        gp = GameParams(
            g_own_speed=0.0,
            g_competitor_speed=0.0,
            g_angle=0.0,
            g_noai=0.0,
            g_stopped=0.0,
            g_distance=0.0,
            base_continue=1.0,
            base_decelerate=1.0,
            base_deviate=1.0,
        )
        game = _one_follower_game(gp, paths_cross=False)
        la, profile = solve_spne(game)
        assert la is Action.CONTINUE
        assert profile == (Action.CONTINUE,)

    def test_deviate_outranks_decelerate_on_ties(self) -> None:
        gp = GameParams(
            g_own_speed=0.0,
            g_competitor_speed=0.0,
            g_angle=0.0,
            g_noai=0.0,
            g_stopped=0.0,
            g_distance=0.0,
            base_continue=1.0,
            base_decelerate=3.0,
            base_deviate=3.0,
        )
        game = _one_follower_game(gp, paths_cross=False)
        la, profile = solve_spne(game)
        assert la is Action.DECELERATE  # car: 3 beats 1, no deviate option
        assert profile == (Action.DEVIATE,)  # ped: 3 == 3, deviate wins the tie

    def test_matches_enumeration_oracle_on_random_games(self) -> None:
        rng = random.Random(20240817)
        for _ in range(300):
            game = _random_raw_game(rng)
            assert solve_spne(game) == _oracle_spne(game)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
            min_size=22,
            max_size=22,
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_equilibrium_properties_hold(
        self, raw: list[float], cross_ped: bool, cross_car: bool
    ) -> None:
        fv1 = FeatureVector(*raw[:11])
        fv2 = FeatureVector(*raw[11:])
        leader = car("c1")
        followers = [ped("p1", Vec2(10.0, 0.0)), car("c2", Vec2(-10.0, 0.0))]
        contexts = {
            "p1": PairContext(fv1, fv2, paths_cross=cross_ped),
            "c2": PairContext(fv2, fv1, paths_cross=cross_car),
        }
        game = build_payoff_matrix(leader, followers, contexts, GP)
        la, profile = solve_spne(game)

        assert la in game.leader_actions
        assert len(profile) == len(game.followers)
        for fid, fa in zip(game.followers, profile):
            actions = game.follower_actions[fid]
            assert fa in actions
            table = game.follower_utility[fid]
            chosen = table[(la, fa)]
            for alt in actions:
                assert chosen >= table[(la, alt)]
                # The winner is the first maximizer in preference order.
                if ACTION_ORDER.index(alt) < ACTION_ORDER.index(fa):
                    assert table[(la, alt)] < chosen
        responses = {a: follower_best_response(game, a) for a in game.leader_actions}
        assert profile == responses[la]
        chosen_u = game.leader_utility[(la, profile)]
        for alt in game.leader_actions:
            assert chosen_u >= game.leader_utility[(alt, responses[alt])]


# ---------------------------------------------------------------------------
# Action application
# ---------------------------------------------------------------------------


class TestApplyAction:
    def test_ped_continue_crosses_ahead_of_the_car(self) -> None:
        agent = ped("p1", Vec2(3.0, -5.0), Vec2(0.0, 1.0), goal=Vec2(3.0, 5.0))
        partner = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        directive = apply_action(agent, Action.CONTINUE, partner, SFM)
        # Goal line x=3 cuts the frontal segment (-3.5,0)-(7,0), so the
        # pedestrian aims one action scale ahead of the car.
        assert directive == DriveTo(target=Vec2(7.0, 0.0), speed=agent.desired_speed)

    def test_ped_continue_clear_of_the_car_keeps_course(self) -> None:
        agent = ped("p1", Vec2(20.0, -5.0), Vec2(0.0, 1.0), goal=Vec2(20.0, 5.0))
        agent.waypoints = [Vec2(20.0, 1.0)]
        partner = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        directive = apply_action(agent, Action.CONTINUE, partner, SFM)
        assert directive == DriveTo(target=Vec2(20.0, 1.0), speed=agent.desired_speed)

    def test_car_continue_keeps_course(self) -> None:
        agent = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        agent.waypoints = [Vec2(5.0, 0.0)]
        directive = apply_action(agent, Action.CONTINUE, ped("p1", Vec2(4.0, 0.0)), SFM)
        assert directive == DriveTo(target=Vec2(5.0, 0.0), speed=agent.desired_speed)

    def test_ped_decelerate_halves_speed(self) -> None:
        agent = ped("p1", Vec2(0.0, 0.0), Vec2(0.0, 1.0), speed=1.2)
        directive = apply_action(agent, Action.DECELERATE, car("c1", Vec2(5.0, 0.0)), SFM)
        assert directive == SetSpeed(speed=0.6)

    def test_car_decelerate_inside_safety_distance(self) -> None:
        agent = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0), speed=2.0)
        partner = ped("p1", Vec2(4.0, 0.0))
        directive = apply_action(agent, Action.DECELERATE, partner, SFM)
        # Within d_min the rate is half the speed: 2.0 - 1.0.
        assert directive == SetSpeed(speed=1.0)

    def test_car_decelerate_beyond_safety_distance(self) -> None:
        agent = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0), speed=3.0)
        partner = ped("p1", Vec2(12.0, 0.0))
        directive = apply_action(agent, Action.DECELERATE, partner, SFM)
        # Rate 3^2 / (12 - 8) = 2.25.
        assert isinstance(directive, SetSpeed)
        assert directive.speed == pytest.approx(0.75, rel=1e-12)

    def test_car_decelerate_never_goes_negative(self) -> None:
        agent = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0), speed=2.0)
        partner = ped("p1", Vec2(8.5, 0.0))
        directive = apply_action(agent, Action.DECELERATE, partner, SFM)
        # Rate 4 / 0.5 = 8 exceeds the speed; clamp at zero.
        assert directive == SetSpeed(speed=0.0)

    def test_car_decelerate_uses_partner_kind_distance(self) -> None:
        sfm = SfmParams(d_min_pc=8.0, d_min_cc=5.0)
        agent = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0), speed=2.0)
        vs_ped = apply_action(agent, Action.DECELERATE, ped("p1", Vec2(12.0, 0.0)), sfm)
        vs_car = apply_action(agent, Action.DECELERATE, car("c2", Vec2(12.0, 0.0)), sfm)
        assert isinstance(vs_ped, SetSpeed) and isinstance(vs_car, SetSpeed)
        assert vs_ped.speed == pytest.approx(2.0 - 4.0 / 4.0, rel=1e-12)
        assert vs_car.speed == pytest.approx(2.0 - 4.0 / 7.0, rel=1e-12)

    def test_ped_deviate_targets_behind_the_car(self) -> None:
        agent = ped("p1", Vec2(10.0, 0.0), Vec2(-1.0, 0.0))
        partner = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        directive = apply_action(agent, Action.DEVIATE, partner, SFM)
        assert directive == DriveTo(target=Vec2(-7.0, 0.0), speed=agent.desired_speed)
        # The target lies strictly behind the car along its heading.
        assert (directive.target - partner.position).dot(partner.heading) < 0.0

    def test_ped_deviate_out_of_view_keeps_course(self) -> None:
        # Beyond the 18.4 m view range.
        far = ped("p1", Vec2(20.0, 0.0), Vec2(-1.0, 0.0))
        partner = car("c1", Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        directive = apply_action(far, Action.DEVIATE, partner, SFM)
        assert directive == DriveTo(target=far.goal, speed=far.desired_speed)
        # Behind the pedestrian's own field of view.
        behind = ped("p1", Vec2(0.0, 0.0), Vec2(1.0, 0.0))
        partner = car("c1", Vec2(-10.0, 0.0), Vec2(1.0, 0.0))
        directive = apply_action(behind, Action.DEVIATE, partner, SFM)
        assert directive == DriveTo(target=behind.goal, speed=behind.desired_speed)

    def test_car_cannot_deviate(self) -> None:
        with pytest.raises(IllegalActionError):
            apply_action(car("c1"), Action.DEVIATE, ped("p1", Vec2(5.0, 0.0)), SFM)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=18.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=360.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=360.0, allow_nan=False),
    )
    def test_deviate_target_always_behind_visible_car(
        self, distance: float, ped_angle_deg: float, car_angle_deg: float
    ) -> None:
        import math

        offset = Vec2(math.cos(math.radians(ped_angle_deg)), math.sin(math.radians(ped_angle_deg)))
        car_heading = Vec2(
            math.cos(math.radians(car_angle_deg)), math.sin(math.radians(car_angle_deg))
        )
        partner = car("c1", Vec2(0.0, 0.0), car_heading)
        # Face the car so it is always in view at this range.
        agent = ped("p1", offset * distance, offset * -1.0)
        directive = apply_action(agent, Action.DEVIATE, partner, SFM)
        assert isinstance(directive, DriveTo)
        behind = (directive.target - partner.position).dot(partner.heading)
        assert behind == pytest.approx(-SFM.s_a, rel=1e-9)

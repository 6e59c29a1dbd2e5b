import random

import pytest

from mcrx import ActionKB, ExitCriteria, default_actions, execute, learn_demonstration, solve
from mcrx.errors import InvalidDemonstrationError, MissingNodeError, NoActionsError
from mcrx.seqdemo import load_actions, save_actions

from conftest import fail_saves
from oracles import bfs_min_actions


def up_down_kb():
    akb = ActionKB()
    akb.add_primitive("U", (0, 1))
    akb.add_primitive("D", (0, -1))
    return akb


def test_learn_introduces_primitive_and_composite():
    akb = up_down_kb()
    result = learn_demonstration(akb, [(0, 0), (0, 1), (0, 2), (-1, 2)])
    assert result.new_primitives == ["L"]
    assert result.composite_created
    composite = akb.get(result.composite_id)
    assert composite.children == ("U", "U", "L")
    assert akb.net_effect(result.composite_id) == (-1, 2)


def test_learn_replay_deduplicates():
    akb = up_down_kb()
    first = learn_demonstration(akb, [(0, 0), (0, 1), (0, 2), (-1, 2)])
    known_before = akb.known_ids()
    second = learn_demonstration(akb, [(5, 5), (5, 6), (5, 7), (4, 7)])
    assert second.composite_id == first.composite_id
    assert not second.composite_created
    assert second.new_primitives == []
    assert akb.known_ids() == known_before


def test_greedy_parse_prefers_longest_composite():
    akb = up_down_kb()
    composite_id, _ = akb.add_composite(["U", "U"])
    result = learn_demonstration(akb, [(0, 0), (0, 1), (0, 2), (0, 1)])
    assert akb.get(result.composite_id).children == (composite_id, "D")


def test_parse_soundness_flattening():
    akb = up_down_kb()
    akb.add_composite(["U", "U"])
    states = [(0, 0), (0, 1), (0, 2), (0, 1), (0, 2), (-1, 2)]
    deltas = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(states, states[1:])]
    result = learn_demonstration(akb, states)
    assert list(akb.flattened(result.composite_id)) == deltas


def test_non_unit_unknown_delta_rejected():
    akb = up_down_kb()
    with pytest.raises(InvalidDemonstrationError):
        learn_demonstration(akb, [(0, 0), (2, 2)])


def test_non_unit_known_delta_matches_composite():
    akb = up_down_kb()
    composite_id, _ = akb.add_composite(["U", "U"])
    result = learn_demonstration(akb, [(0, 0), (0, 2)])
    assert result.composite_id == composite_id
    assert not result.composite_created


def test_too_short_demonstration_rejected():
    with pytest.raises(InvalidDemonstrationError):
        learn_demonstration(up_down_kb(), [(0, 0)])


def test_net_effect_primitive_and_composite():
    akb = up_down_kb()
    akb.add_primitive("L", (-1, 0))
    assert akb.net_effect("U") == (0, 1)
    flat_id, _ = akb.add_composite(["U", "U", "L"])
    assert akb.net_effect(flat_id) == (-1, 2)
    inner, _ = akb.add_composite(["U", "U"])
    outer, _ = akb.add_composite([inner, "L", "U"])
    assert akb.net_effect(outer) == (-1, 3)
    with pytest.raises(MissingNodeError):
        akb.net_effect("Z")


def test_execute():
    akb = up_down_kb()
    akb.add_primitive("L", (-1, 0))
    assert execute(akb, [], (3, 4)) == (3, 4)
    assert execute(akb, ["U", "U", "L"], (0, 0)) == (-1, 2)
    with pytest.raises(MissingNodeError):
        execute(akb, ["X"], (0, 0))


def test_solve_trivial_instance():
    akb = default_actions()
    known_before = akb.known_ids()
    result = solve(akb, (2, 2), (2, 2))
    assert result.sequence == ()
    assert result.composite_id is None
    assert result.report.exit_reason == "threshold"
    assert akb.known_ids() == known_before  # 0 new nodes


def test_solve_three_step_target():
    akb = default_actions()
    result = solve(akb, (0, 0), (2, 1))
    assert result.report.exit_reason == "threshold"
    assert len(result.sequence) == 3  # BFS minimum for distance 3
    assert execute(akb, result.sequence, (0, 0)) == (2, 1)
    assert result.composite_id is not None and result.composite_created
    assert akb.net_effect(result.composite_id) == (2, 1)


def test_solve_unreachable_exits_on_iterations():
    akb = ActionKB()
    akb.add_primitive("U", (0, 1))
    result = solve(akb, (0, 0), (0, -1), ExitCriteria(max_iterations=100))
    assert result.report.exit_reason == "iterations"
    assert result.composite_id is None
    endpoint = execute(akb, result.sequence, (0, 0))
    assert abs(endpoint[0]) + abs(endpoint[1] + 1) >= 1  # never below distance 1
    assert result.sequence == ()  # staying put is the best reachable point


def test_solve_requires_actions():
    with pytest.raises(NoActionsError):
        solve(ActionKB(), (0, 0), (1, 1))


def test_solve_randomized_against_bfs_oracle():
    rng = random.Random(20260101)
    akb = default_actions()
    effects = [akb.net_effect(a) for a in akb.known_ids()]
    for _ in range(50):
        start = (rng.randint(-5, 5), rng.randint(-5, 5))
        target = (start[0] + rng.randint(-7, 7), start[1] + rng.randint(-7, 7))
        oracle = bfs_min_actions(effects, start, target, max_depth=14)
        assert oracle is not None  # grid with UDLR reaches everything
        result = solve(default_actions(), start, target)
        assert result.report.exit_reason == "threshold"
        assert execute(akb, result.sequence, start) == target
        assert len(result.sequence) == oracle  # best-first on distance is minimal here


def test_learning_keeps_instances_solvable():
    akb = default_actions()
    before = solve(akb, (0, 0), (3, -2))
    assert before.report.exit_reason == "threshold"
    learn_demonstration(akb, [(0, 0), (0, 1), (0, 2), (1, 2)])
    after = solve(akb, (0, 0), (3, -2))
    assert after.report.exit_reason == "threshold"
    assert execute(akb, after.sequence, (0, 0)) == (3, -2)


def test_solve_reuses_learned_composites():
    akb = default_actions()
    first = solve(akb, (0, 0), (2, 1))
    again = solve(akb, (0, 0), (2, 1))
    assert again.composite_id == first.composite_id
    assert not again.composite_created


def test_action_kb_round_trip(tmp_path):
    akb = up_down_kb()
    learn_demonstration(akb, [(0, 0), (0, 1), (0, 2), (-1, 2)])
    solve(akb, (0, 0), (0, 2))
    path = tmp_path / "actions.jsonl"
    save_actions(akb, str(path))
    loaded = load_actions(str(path))
    assert set(loaded.known_ids()) == set(akb.known_ids())
    for action_id in akb.known_ids():
        assert loaded.net_effect(action_id) == akb.net_effect(action_id)
        assert loaded.flattened(action_id) == akb.flattened(action_id)


@pytest.mark.parametrize("how", ["write", "replace"])
def test_failed_save_keeps_old_action_file(tmp_path, monkeypatch, how):
    path = tmp_path / "actions.jsonl"
    save_actions(up_down_kb(), str(path))
    before = path.read_bytes()
    akb = default_actions()
    akb.add_composite(["U", "R", "R"])
    fail_saves(monkeypatch, how)
    with pytest.raises(OSError):
        save_actions(akb, str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["actions.jsonl"]
    save_actions(akb, str(path))
    assert load_actions(str(path)).known_ids() == akb.known_ids()


@pytest.mark.parametrize("effect", [(1.5, 0), (True, 0), (2**53 + 1, 0), (0, -(2**53) - 1)])
def test_load_actions_rejects_bad_effect(tmp_path, effect):
    import json

    from mcrx.errors import IndexFormatError

    path = tmp_path / "actions.jsonl"
    record = {"t": "prim", "label": "X", "dx": effect[0], "dy": effect[1]}
    path.write_text('{"t":"prim","label":"U","dx":0,"dy":1}\n' + json.dumps(record) + "\n")
    with pytest.raises(IndexFormatError) as excinfo:
        load_actions(str(path))
    assert excinfo.value.line == 2


@pytest.mark.parametrize("label, effect", [("X", (1.5, 0)), ("X", (True, 3)), ("X", ("1", 0)), (7, (2, 0))])
def test_add_primitive_rejects_non_int_effect_and_non_str_label(label, effect):
    akb = up_down_kb()
    with pytest.raises(ValueError):
        akb.add_primitive(label, effect)
    assert akb.known_ids() == ["U", "D"]


def test_solve_rejects_coordinates_beyond_limit():
    with pytest.raises(ValueError):
        solve(default_actions(), (0, 0), (2**53 + 1, 0))

"""Grid-world action sequences: learn composites, plan with the loop.

Actions move a point on the 2D integer grid. A demonstration (a state
trajectory) is parsed against the known actions by greedy longest match
on flattened primitive effects, unknown unit steps become new
primitives, and the whole parse registers as one new composite action.
Planning runs the solution-critic loop with best-first enumeration over
action sequences; an exact hit registers the solution as a composite,
so solved problems become single reusable actions.
"""

from __future__ import annotations

import heapq
import itertools
import json
from typing import NamedTuple

from .errors import (
    IndexFormatError,
    InvalidDemonstrationError,
    MissingNodeError,
    NoActionsError,
)
from .textfile import json_records, utf8_lines, write_lines_atomic
from .scl import EXIT_THRESHOLD, ExitCriteria, Feedback, LoopReport, run

GridState = tuple[int, int]
Effect = tuple[int, int]

# canonical labels for the four unit moves
UNIT_LABELS: dict[Effect, str] = {(0, 1): "U", (0, -1): "D", (-1, 0): "L", (1, 0): "R"}

# start, target and primitive effects stay within the integers a float
# holds exactly, so the critic's float score cannot overflow
COORD_LIMIT = 2**53


def check_coordinates(point: tuple[int, int]) -> GridState:
    """The pair as a tuple; ValueError for a coordinate that is not an int
    (a bool is not) or lies outside [-COORD_LIMIT, COORD_LIMIT]."""
    x, y = point
    if type(x) is not int or type(y) is not int or max(abs(x), abs(y)) > COORD_LIMIT:
        raise ValueError(f"coordinates {point!r} are not ints within +-2**53")
    return (x, y)


def parse_pair(text: str) -> tuple[int, int]:
    """An "X,Y" text as a pair of ints; ValueError "expected X,Y" otherwise."""
    try:
        x, y = text.split(",")
        return (int(x), int(y))
    except ValueError:
        raise ValueError(f"expected X,Y, got {text!r}") from None


def read_demonstration(path: str) -> list[GridState]:
    """The X,Y states of a demonstration file, one per non-blank line;
    InvalidDemonstrationError names a line parse_pair refuses."""
    states = []
    for line_no, text in utf8_lines(path, name_file=True):
        stripped = text.strip()
        if stripped:
            try:
                states.append(parse_pair(stripped))
            except ValueError as exc:
                raise InvalidDemonstrationError(f"line {line_no}: {exc}") from exc
    return states


class Action(NamedTuple):
    """A known action. A primitive has no children; a composite's
    flattening and net effect follow from its children's."""

    id: str
    children: tuple[str, ...]
    flat: tuple[Effect, ...]  # the primitive effects, in order
    net: Effect  # total displacement


class LearnResult(NamedTuple):
    new_primitives: list[str]
    composite_id: str
    composite_created: bool


class SolveResult(NamedTuple):
    sequence: tuple[str, ...]
    composite_id: str | None
    composite_created: bool
    report: LoopReport


def manhattan(a: GridState, b: GridState) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class ActionKB:
    """Known actions: primitives plus learned composites, in creation order."""

    def __init__(self):
        self._actions: dict[str, Action] = {}  # insertion order is creation order
        self._by_flat: dict[tuple[Effect, ...], str] = {}  # first action per flattening
        self._next_composite = 1

    def __iter__(self):
        """The action records, in creation order."""
        return iter(self._actions.values())

    def known_ids(self) -> list[str]:
        return list(self._actions)

    def get(self, action_id: str) -> Action:
        action = self._actions.get(action_id)
        if action is None:
            raise MissingNodeError(f"no action {action_id!r}")
        return action

    def add_primitive(self, label: str, effect: Effect) -> str:
        """Register a one-letter primitive; ValueError for a label that is
        not a str or an effect that check_coordinates refuses."""
        if not isinstance(label, str):
            raise ValueError(f"label {label!r} is not a string")
        effect = check_coordinates(effect)
        if label in self._actions:
            if self._actions[label] != Action(label, (), (effect,), effect):
                raise ValueError(f"action id {label!r} already taken")
            return label
        if len(label) != 1:
            raise ValueError("primitive labels are single letters")
        if self.primitive_for_effect(effect) is not None:
            raise ValueError(f"effect {effect} already has a primitive")
        return self._insert(label, (), (effect,))

    def primitive_for_effect(self, effect: Effect) -> str | None:
        # a one-step flattening is first owned by its primitive: a
        # composite needs an action with that flattening before it
        return self._by_flat.get((effect,))

    def add_composite(self, children: list[str]) -> tuple[str, bool]:
        """Register an action sequence; identical flattenings deduplicate."""
        flat = self._flatten(children)
        existing = self._by_flat.get(flat)
        if existing is not None:
            return existing, False
        while f"S{self._next_composite}" in self._actions:
            self._next_composite += 1
        return self._insert(f"S{self._next_composite}", tuple(children), flat), True

    def _flatten(self, children: list[str]) -> tuple[Effect, ...]:
        if not children:
            raise ValueError("composite needs at least one child")
        return tuple(effect for child in children for effect in self.get(child).flat)

    def _insert(self, action_id: str, children: tuple[str, ...], flat: tuple[Effect, ...]) -> str:
        """Store a new action; the one insert for add_* and load_actions."""
        if not isinstance(action_id, str) or action_id in self._actions:
            raise ValueError(f"id {action_id!r} is not a new string")
        net = (sum(effect[0] for effect in flat), sum(effect[1] for effect in flat))
        self._actions[action_id] = Action(action_id, children, flat, net)
        self._by_flat.setdefault(flat, action_id)
        return action_id

    def action_with_net(self, effect: Effect) -> str | None:
        """Known action matching a whole-step effect; composites first,
        then the earliest created (min keeps the first of equal keys)."""
        best = min(
            (action for action in self if action.net == effect),
            key=lambda action: not action.children,
            default=None,
        )
        return None if best is None else best.id


def default_actions() -> ActionKB:
    """Fresh action base with the four unit moves."""
    akb = ActionKB()
    for effect, label in UNIT_LABELS.items():
        akb.add_primitive(label, effect)
    return akb


def learn_demonstration(akb: ActionKB, states: list[GridState]) -> LearnResult:
    """Absorb a state trajectory into the action base.

    Unknown unit steps become new primitives under their canonical
    labels; a non-unit step must match a known action's net effect.
    The delta sequence is then parsed greedily (longest flattened match;
    composites beat primitives on ties, then earliest-created) and the
    parse registers as a new top-level composite unless an identical one
    already exists. InvalidDemonstrationError, raised before anything is
    added, for a state that check_coordinates refuses, a non-unit step no
    action explains or an unknown unit step whose canonical label already
    names another action.
    """
    try:
        states = list(map(check_coordinates, states))
    except ValueError as exc:
        raise InvalidDemonstrationError(str(exc)) from exc
    if len(states) < 2:
        raise InvalidDemonstrationError("a demonstration needs at least two states")
    deltas = [
        (b[0] - a[0], b[1] - a[1]) for a, b in zip(states, states[1:])
    ]

    for position, delta in enumerate(deltas, start=1):
        if delta not in UNIT_LABELS:
            if akb.action_with_net(delta) is None:
                raise InvalidDemonstrationError(
                    f"step {position} jumps by {delta}, which no known action explains"
                )
        elif akb.primitive_for_effect(delta) is None and UNIT_LABELS[delta] in akb.known_ids():
            raise InvalidDemonstrationError(
                f"step {position} moves by {delta}, but its label "
                f"{UNIT_LABELS[delta]!r} names another action"
            )

    new_primitives = []
    for delta in deltas:
        if delta in UNIT_LABELS and akb.primitive_for_effect(delta) is None:
            new_primitives.append(akb.add_primitive(UNIT_LABELS[delta], delta))

    parsed = []
    position = 0
    while position < len(deltas):
        delta = deltas[position]
        if delta in UNIT_LABELS:
            action = _longest_match(akb, deltas, position)
            steps = len(akb.get(action).flat)
        else:  # explained, checked above
            action, steps = akb.action_with_net(delta), 1
        parsed.append(action)
        position += steps

    composite_id, created = akb.add_composite(parsed)
    return LearnResult(new_primitives, composite_id, created)


def _longest_match(akb: ActionKB, deltas: list[Effect], position: int) -> str:
    # longest flattening, then composites, then earliest created; the
    # step's own primitive always matches, so min never sees no action
    return min(
        (
            action
            for action in akb
            if tuple(deltas[position : position + len(action.flat)]) == action.flat
        ),
        key=lambda action: (-len(action.flat), not action.children),
    ).id


def execute(akb: ActionKB, sequence: list[str] | tuple[str, ...], start: GridState) -> GridState:
    """Apply a sequence of known actions to a state; ValueError for a
    start that check_coordinates refuses."""
    x, y = check_coordinates(start)
    for action_id in sequence:
        dx, dy = akb.get(action_id).net
        x, y = x + dx, y + dy
    return (x, y)


def solve(
    akb: ActionKB,
    start: GridState,
    target: GridState,
    exit_criteria: ExitCriteria | None = None,
) -> SolveResult:
    """Find a known-action sequence from start to target with the loop.

    The critic maps the endpoint's Manhattan distance to a score where
    100 means an exact hit; the generator enumerates sequences
    best-first on that same score. An exact hit is registered as a new
    composite (deduplicated); on budget exhaustion the best partial
    comes back with the loop's exit reason. composite_id is set only
    when the hit is a composite action, not a single primitive. Raises
    NoActionsError for an empty action base and ValueError for a start
    or target that check_coordinates refuses.
    """
    if not akb.known_ids():
        raise NoActionsError("no actions known")
    start, target = check_coordinates(start), check_coordinates(target)
    if exit_criteria is None:
        exit_criteria = ExitCriteria(max_iterations=10000, score_threshold=100.0)
    elif exit_criteria.score_threshold is None:
        exit_criteria = exit_criteria._replace(score_threshold=100.0)

    base_distance = manhattan(start, target)

    def score_endpoint(endpoint: GridState) -> float:
        return 100.0 * (1.0 - manhattan(endpoint, target) / (base_distance + 1.0))

    def critic(sequence: tuple[str, ...]) -> float:
        return score_endpoint(execute(akb, sequence, start))

    report = run(_best_first(akb, start, score_endpoint), critic, exit_criteria)

    sequence = tuple(report.best) if report.best is not None else ()
    composite_id, created = None, False
    if (
        report.exit_reason == EXIT_THRESHOLD
        and sequence
        and execute(akb, sequence, start) == target
    ):
        action_id, created = akb.add_composite(list(sequence))
        if akb.get(action_id).children:
            composite_id = action_id
    return SolveResult(sequence, composite_id, created, report)


def _best_first(akb: ActionKB, start: GridState, score_endpoint):
    """Best-first enumeration over action sequences, one per call.

    The frontier is ordered by the critic's own endpoint score; a
    sequence's extensions enter the frontier when it is popped.
    Endpoints deduplicate, so revisiting loops never enqueue.
    """
    tick = itertools.count()
    frontier = [(-score_endpoint(start), next(tick), (), start)]
    visited = {start}

    def generate(feedback: Feedback | None):
        if not frontier:
            return None
        _, _, sequence, endpoint = heapq.heappop(frontier)
        for action in akb:
            dx, dy = action.net
            successor = (endpoint[0] + dx, endpoint[1] + dy)
            if successor not in visited:
                visited.add(successor)
                heapq.heappush(
                    frontier,
                    (-score_endpoint(successor), next(tick), sequence + (action.id,), successor),
                )
        return sequence

    return generate


def save_actions(akb: ActionKB, path: str) -> None:
    """Write the action base: primitive records, then composite records."""
    lines = []
    for action in sorted(akb, key=lambda action: bool(action.children)):  # stable
        if action.children:
            record = {"t": "comp", "id": action.id, "children": list(action.children)}
        else:
            record = {"t": "prim", "label": action.id, "dx": action.net[0], "dy": action.net[1]}
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    write_lines_atomic(path, lines)


def load_actions(path: str) -> ActionKB:
    """Read an action base file written by save_actions.

    Raises IndexFormatError with the line number for a file that is not
    UTF-8 text and for a malformed record: labels and ids must be
    strings, dx and dy ints (not bools), and children a non-empty list
    of ids defined on earlier lines.
    """
    akb = ActionKB()
    for line_no, record in json_records(path):
        try:
            _load_action(akb, record)
        except (KeyError, TypeError, ValueError, MissingNodeError) as exc:
            raise IndexFormatError(f"bad action record ({exc})", line_no) from exc
    return akb


def _load_action(akb: ActionKB, record: dict) -> None:
    kind = record.get("t")
    if kind == "prim":
        akb.add_primitive(record["label"], (record["dx"], record["dy"]))
    elif kind == "comp":
        composite_id, children = record["id"], record["children"]
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise ValueError("children must be a list of action ids")
        akb._insert(composite_id, tuple(children), akb._flatten(children))
    else:
        raise ValueError(f"unknown record type {kind!r}")

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
import io
import itertools
import json
from dataclasses import dataclass, replace

from .errors import (
    IndexFormatError,
    InvalidDemonstrationError,
    MissingNodeError,
    NoActionsError,
)
from .kb import read_utf8_text, write_text_atomic
from .scl import EXIT_THRESHOLD, ExitCriteria, Feedback, LoopReport, run

GridState = tuple[int, int]
Effect = tuple[int, int]

# canonical labels for the four unit moves
UNIT_LABELS: dict[Effect, str] = {(0, 1): "U", (0, -1): "D", (-1, 0): "L", (1, 0): "R"}

# start, target and primitive effects stay within the integers a float
# holds exactly, so the critic's float score cannot overflow
COORD_LIMIT = 2**53


def check_coordinates(point: tuple[int, int]) -> None:
    """ValueError if a coordinate pair leaves [-COORD_LIMIT, COORD_LIMIT]."""
    if max(abs(point[0]), abs(point[1])) > COORD_LIMIT:
        raise ValueError(f"coordinates {point} exceed +-2**53")


@dataclass(slots=True)
class PrimitiveAction:
    label: str
    effect: Effect


@dataclass(slots=True)
class CompositeAction:
    id: str
    children: tuple[str, ...]


@dataclass(slots=True)
class LearnResult:
    new_primitives: list[str]
    composite_id: str
    composite_created: bool


@dataclass(slots=True)
class SolveResult:
    sequence: tuple[str, ...]
    composite_id: str | None
    composite_created: bool
    report: LoopReport


def manhattan(a: GridState, b: GridState) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class ActionKB:
    """Known actions: primitives plus learned composites, in creation order."""

    def __init__(self):
        self._actions: dict[str, PrimitiveAction | CompositeAction] = {}
        self._order: list[str] = []
        self._net: dict[str, Effect] = {}
        self._flat: dict[str, tuple[Effect, ...]] = {}
        self._by_flat: dict[tuple[Effect, ...], str] = {}
        self._next_composite = 1

    def known_ids(self) -> list[str]:
        return list(self._order)

    def get(self, action_id: str) -> PrimitiveAction | CompositeAction:
        action = self._actions.get(action_id)
        if action is None:
            raise MissingNodeError(f"no action {action_id!r}")
        return action

    def is_composite(self, action_id: str) -> bool:
        return isinstance(self.get(action_id), CompositeAction)

    def creation_index(self, action_id: str) -> int:
        return self._order.index(action_id)

    def add_primitive(self, label: str, effect: Effect) -> str:
        effect = (int(effect[0]), int(effect[1]))
        check_coordinates(effect)
        existing = self._actions.get(label)
        if existing is not None:
            if isinstance(existing, PrimitiveAction) and existing.effect == effect:
                return label
            raise ValueError(f"action id {label!r} already taken")
        if len(label) != 1:
            raise ValueError("primitive labels are single letters")
        if self.primitive_for_effect(effect) is not None:
            raise ValueError(f"effect {effect} already has a primitive")
        self._actions[label] = PrimitiveAction(label, effect)
        self._order.append(label)
        self._net[label] = effect
        self._flat[label] = (effect,)
        self._by_flat.setdefault((effect,), label)
        return label

    def primitive_for_effect(self, effect: Effect) -> str | None:
        for action_id in self._order:
            action = self._actions[action_id]
            if isinstance(action, PrimitiveAction) and action.effect == effect:
                return action_id
        return None

    def add_composite(self, children: list[str]) -> tuple[str, bool]:
        """Register an action sequence; identical flattenings deduplicate."""
        if not children:
            raise ValueError("composite needs at least one child")
        flat: list[Effect] = []
        for child in children:
            flat.extend(self.flattened(child))
        key = tuple(flat)
        existing = self._by_flat.get(key)
        if existing is not None:
            return existing, False
        composite_id = self._claim_composite_id()
        return self._store_composite(composite_id, tuple(children), key), True

    def _claim_composite_id(self) -> str:
        while f"S{self._next_composite}" in self._actions:
            self._next_composite += 1
        composite_id = f"S{self._next_composite}"
        self._next_composite += 1
        return composite_id

    def _store_composite(
        self, composite_id: str, children: tuple[str, ...], flat: tuple[Effect, ...]
    ) -> str:
        self._actions[composite_id] = CompositeAction(composite_id, children)
        self._order.append(composite_id)
        dx = sum(effect[0] for effect in flat)
        dy = sum(effect[1] for effect in flat)
        self._net[composite_id] = (dx, dy)
        self._flat[composite_id] = flat
        self._by_flat.setdefault(flat, composite_id)
        return composite_id

    def net_effect(self, action_id: str) -> Effect:
        """Total displacement of an action (memoized at creation)."""
        self.get(action_id)
        return self._net[action_id]

    def flattened(self, action_id: str) -> tuple[Effect, ...]:
        """The action expanded to its primitive effect sequence."""
        self.get(action_id)
        return self._flat[action_id]

    def action_with_net(self, effect: Effect) -> str | None:
        """Known action matching a whole-step effect; composites first."""
        matches = [aid for aid in self._order if self._net[aid] == effect]
        if not matches:
            return None
        matches.sort(
            key=lambda aid: (0 if self.is_composite(aid) else 1, self.creation_index(aid))
        )
        return matches[0]


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
    already exists.
    """
    states = [(int(x), int(y)) for x, y in states]
    if len(states) < 2:
        raise InvalidDemonstrationError("a demonstration needs at least two states")
    deltas = [
        (b[0] - a[0], b[1] - a[1]) for a, b in zip(states, states[1:])
    ]

    new_primitives = []
    for delta in deltas:
        if delta in UNIT_LABELS and akb.primitive_for_effect(delta) is None:
            new_primitives.append(akb.add_primitive(UNIT_LABELS[delta], delta))

    parsed = []
    position = 0
    while position < len(deltas):
        delta = deltas[position]
        if delta not in UNIT_LABELS:
            action = akb.action_with_net(delta)
            if action is None:
                raise InvalidDemonstrationError(
                    f"step {position + 1} jumps by {delta}, which no known "
                    "action explains"
                )
            parsed.append(action)
            position += 1
            continue
        match = _longest_match(akb, deltas, position)
        parsed.append(match)
        position += len(akb.flattened(match))

    composite_id, created = akb.add_composite(parsed)
    return LearnResult(new_primitives, composite_id, created)


def _longest_match(akb: ActionKB, deltas: list[Effect], position: int) -> str:
    best = None
    best_key = None
    for index, action_id in enumerate(akb.known_ids()):
        flat = akb.flattened(action_id)
        if tuple(deltas[position : position + len(flat)]) != flat:
            continue
        key = (-len(flat), 0 if akb.is_composite(action_id) else 1, index)
        if best_key is None or key < best_key:
            best, best_key = action_id, key
    # the step's own primitive always matches, so best cannot be None here
    assert best is not None
    return best


def execute(akb: ActionKB, sequence: list[str] | tuple[str, ...], start: GridState) -> GridState:
    """Apply a sequence of known actions to a state."""
    x, y = int(start[0]), int(start[1])
    for action_id in sequence:
        dx, dy = akb.net_effect(action_id)
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
    or target beyond COORD_LIMIT.
    """
    if not akb.known_ids():
        raise NoActionsError("no actions known")
    start = (int(start[0]), int(start[1]))
    target = (int(target[0]), int(target[1]))
    check_coordinates(start)
    check_coordinates(target)
    if exit_criteria is None:
        exit_criteria = ExitCriteria(max_iterations=10000, score_threshold=100.0)
    elif exit_criteria.score_threshold is None:
        exit_criteria = replace(exit_criteria, score_threshold=100.0)

    base_distance = manhattan(start, target)

    def score_endpoint(endpoint: GridState) -> float:
        return 100.0 * (1.0 - manhattan(endpoint, target) / (base_distance + 1.0))

    def critic(sequence: tuple[str, ...]) -> float:
        return score_endpoint(execute(akb, sequence, start))

    report = run(_best_first(akb, start, score_endpoint), critic, exit_criteria)

    sequence = tuple(report.best) if report.best is not None else ()
    composite_id = None
    created = False
    if (
        report.exit_reason == EXIT_THRESHOLD
        and sequence
        and execute(akb, sequence, start) == target
    ):
        action_id, created = akb.add_composite(list(sequence))
        if akb.is_composite(action_id):
            composite_id = action_id
    return SolveResult(sequence, composite_id, created, report)


def _best_first(akb: ActionKB, start: GridState, score_endpoint):
    """Best-first enumeration over action sequences, one per call.

    The frontier is ordered by the critic's own endpoint score; each
    yielded sequence's extensions enter the frontier on the next call.
    Endpoints deduplicate, so revisiting loops never enqueue.
    """
    tick = itertools.count()
    frontier = [(-score_endpoint(start), next(tick), (), start)]
    visited = {start}
    last: tuple[tuple[str, ...], GridState] | None = None

    def generate(feedback: Feedback | None):
        nonlocal last
        if last is not None:
            sequence, endpoint = last
            for action_id in akb.known_ids():
                dx, dy = akb.net_effect(action_id)
                successor = (endpoint[0] + dx, endpoint[1] + dy)
                if successor in visited:
                    continue
                visited.add(successor)
                heapq.heappush(
                    frontier,
                    (
                        -score_endpoint(successor),
                        next(tick),
                        sequence + (action_id,),
                        successor,
                    ),
                )
        if not frontier:
            last = None
            return None
        _, _, sequence, endpoint = heapq.heappop(frontier)
        last = (sequence, endpoint)
        return sequence

    return generate


def save_actions(akb: ActionKB, path: str) -> None:
    """Write the action base: primitive records, then composite records."""
    lines = []
    for action_id in akb.known_ids():
        action = akb.get(action_id)
        if isinstance(action, PrimitiveAction):
            lines.append(
                json.dumps(
                    {
                        "t": "prim",
                        "label": action.label,
                        "dx": action.effect[0],
                        "dy": action.effect[1],
                    },
                    separators=(",", ":"),
                )
            )
    for action_id in akb.known_ids():
        action = akb.get(action_id)
        if isinstance(action, CompositeAction):
            lines.append(
                json.dumps(
                    {"t": "comp", "id": action.id, "children": list(action.children)},
                    separators=(",", ":"),
                )
            )
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


def load_actions(path: str) -> ActionKB:
    """Read an action base file written by save_actions.

    Raises IndexFormatError with the line number for a file that is not
    UTF-8 text and for a malformed record: labels and ids must be
    strings, dx and dy ints (not bools), and children a list of ids
    defined on earlier lines.
    """
    akb = ActionKB()
    with io.StringIO(read_utf8_text(path), newline=None) as handle:
        for line_no, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
                raise IndexFormatError(
                    f"invalid record ({getattr(exc, 'msg', exc)})", line_no
                ) from exc
            if not isinstance(record, dict):
                raise IndexFormatError("record is not an object", line_no)
            try:
                _load_action(akb, record)
            except (KeyError, TypeError, ValueError, MissingNodeError) as exc:
                raise IndexFormatError(f"bad action record ({exc})", line_no) from exc
    return akb


def _load_action(akb: ActionKB, record: dict) -> None:
    kind = record.get("t")
    if kind == "prim":
        label, dx, dy = record["label"], record["dx"], record["dy"]
        if not isinstance(label, str) or type(dx) is not int or type(dy) is not int:
            raise ValueError("needs a string label and int dx, dy")
        akb.add_primitive(label, (dx, dy))
    elif kind == "comp":
        composite_id, children = record["id"], record["children"]
        if not isinstance(children, list) or not all(isinstance(c, str) for c in children):
            raise ValueError("children must be a list of action ids")
        if not isinstance(composite_id, str) or composite_id in akb._actions:
            raise ValueError(f"id {composite_id!r} is not a new string")
        flat: list[Effect] = []
        for child in children:
            flat.extend(akb.flattened(child))
        akb._store_composite(composite_id, tuple(children), tuple(flat))
    else:
        raise ValueError(f"unknown record type {kind!r}")

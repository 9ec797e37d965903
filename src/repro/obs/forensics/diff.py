"""The repro diff debugger: align run-event streams, localize, bisect.

Three layers, each built on the one below:

* :func:`first_divergence` — align two run-event lists (``TRACE_*`` or
  ``DIGEST_*`` files) trial by trial and round by round and report the
  first divergent (round, phase) with per-component attribution: inbox
  bytes, ledger counters, or round structure.
  When both sides carry a digest chain, prefix equality is one chain
  comparison per round; otherwise rounds align on their deterministic
  fields (label and ledger counters).
* :func:`bisect_divergence` — re-run both sides' trials in *fine* mode
  over a window around the divergent round (default backend — valid
  because the digest chain is pinned equal across backends) and name the
  first node whose delivered inbox diverged.
* ``repro diff`` / ``repro report trend`` (:mod:`repro.cli`,
  :mod:`repro.obs.analytics.history`) — the user-facing surfaces.

The bisection re-run is possible because every instrumented trial's header
embeds the scenario spec's workload fields (:func:`spec_payload`);
performance knobs (backend/ledger) are deliberately absent and default on
re-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Component precedence inside one divergent round — causal order: a
#: differing label means the rounds do different work, and the ledger
#: counters summarize the delivered bytes the inbox digest covers.
_COMPONENT_ORDER = ("structure", "inbox", "counters")


# ------------------------------------------------------------- spec embedding
def spec_payload(spec) -> Dict[str, Any]:
    """JSON-safe embedding of a spec's workload fields for stream headers.

    Everything the seed derivation and the solvers read — and nothing the
    byte-identity contract says must not matter (backend, ledger,
    trial-worker count).  Fault plans embed via their canonical encoding,
    which is JSON-round-trip stable by design.
    """
    from repro.faults.plan import FaultPlan

    payload: Dict[str, Any] = {
        "name": spec.name,
        "family": spec.family,
        "solver": spec.solver,
        "family_params": dict(spec.family_params),
        "solver_params": dict(spec.solver_params),
        "mode": spec.mode,
        "trials": spec.trials,
        "seed": spec.seed,
    }
    if spec.bandwidth_bits is not None:
        payload["bandwidth_bits"] = spec.bandwidth_bits
    plan = FaultPlan.coerce(spec.faults)
    if plan is not None:
        payload["faults"] = plan.canonical()
    return payload


def spec_from_payload(payload: Mapping[str, Any]):
    """Rebuild a runnable :class:`ScenarioSpec` from an embedded payload.

    Performance knobs revert to their defaults (the columnar backend) —
    legitimate, because the digest chain is backend-neutral.
    Node identifiers survive only if they are JSON-native (int/str); every
    in-repo graph family uses int nodes.
    """
    from repro.experiments.spec import ScenarioSpec

    faults = payload.get("faults")
    params: Dict[str, Any] = {}
    if faults:
        params = dict(faults)
        if "crash" in params:
            params["crash"] = {
                int(round_id): list(nodes)
                for round_id, nodes in params["crash"].items()
            }
        if "delay" in params:
            params["delay"] = {
                (sender, receiver): slots
                for sender, receiver, slots in params["delay"]
            }
    return ScenarioSpec(
        name=payload["name"],
        family=payload["family"],
        solver=payload["solver"],
        family_params=dict(payload.get("family_params", {})),
        solver_params=dict(payload.get("solver_params", {})),
        mode=payload.get("mode", "congest"),
        bandwidth_bits=payload.get("bandwidth_bits"),
        trials=int(payload.get("trials", 1)),
        seed=int(payload.get("seed", 0)),
        faults=params,
    )


# ------------------------------------------------------------- stream walking
def split_trials(events: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Group a stream's events into per-trial blocks, in stream order."""
    trials: List[Dict[str, Any]] = []
    current: Optional[Dict[str, Any]] = None
    for event in events:
        kind = event.get("type")
        if kind == "header":
            current = {"header": event, "rounds": [], "fine": {}, "end": None}
            trials.append(current)
        elif current is None:
            raise ValueError("stream does not start with a header event")
        elif kind == "round":
            current["rounds"].append(event)
        elif kind == "fine":
            current["fine"][event["round"]] = event
        elif kind == "end":
            current["end"] = event
    return trials


def select_trial(events: Sequence[Mapping[str, Any]],
                 trial: int) -> List[Mapping[str, Any]]:
    """The events of the trial blocks whose header names trial ``trial``."""
    selected: List[Mapping[str, Any]] = []
    keep = False
    for event in events:
        if event.get("type") == "header":
            keep = event.get("trial") == trial
        if keep:
            selected.append(event)
    return selected


@dataclass
class Divergence:
    """The first point where two run-event streams disagree."""

    scenario: str
    trial: int
    pair_index: int
    component: str  # primary: structure | inbox | counters
    components: Tuple[str, ...] = ()
    round: Optional[int] = None
    phase: Optional[str] = None
    label: Optional[str] = None
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "scenario": self.scenario,
            "trial": self.trial,
            "component": self.component,
            "components": list(self.components),
            "detail": self.detail,
        }
        for key in ("round", "phase", "label"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


def _round_components(
    round_a: Mapping[str, Any], round_b: Mapping[str, Any], digested: bool,
) -> Tuple[List[str], List[str]]:
    """Which components differ between two aligned round events, and how.

    The inbox component exists only when both sides are ``digested``;
    otherwise label and counters are all there is.
    """
    components: List[str] = []
    details: List[str] = []
    if round_a.get("label") != round_b.get("label"):
        components.append("structure")
        details.append(
            f"label {round_a.get('label')!r} vs {round_b.get('label')!r}"
        )
    if digested and (round_a.get("payload") != round_b.get("payload")
                     or round_a.get("payload_n") != round_b.get("payload_n")):
        components.append("inbox")
        details.append(
            "payload digest "
            f"{round_a.get('payload')}/{round_a.get('payload_n')} vs "
            f"{round_b.get('payload')}/{round_b.get('payload_n')}"
        )
    counter_diffs = [
        f"{key} {round_a.get(key)} vs {round_b.get(key)}"
        for key in ("messages", "bits", "max_edge_bits")
        if round_a.get(key) != round_b.get(key)
    ]
    if counter_diffs:
        components.append("counters")
        details.append(", ".join(counter_diffs))
    return components, details


#: Header fields that must match for two streams to be alignable at all.
_WORKLOAD_KEYS = ("n", "m", "mode", "bandwidth_bits", "family", "solver",
                  "seed")


def first_divergence(
    events_a: Sequence[Mapping[str, Any]],
    events_b: Sequence[Mapping[str, Any]],
) -> Optional[Divergence]:
    """First divergent point between two run-event streams, or ``None``.

    Trials align by stream position (:func:`select_trial` narrows a stream
    to one trial first).  Differing fault plans are reported as context,
    not a mismatch — diffing a clean run against its faulted twin is the
    injection workflow, and the interesting answer is still *where* the
    rounds part ways.
    """
    trials_a = split_trials(events_a)
    trials_b = split_trials(events_b)
    pairs = min(len(trials_a), len(trials_b))
    for pair_index in range(pairs):
        block_a = trials_a[pair_index]
        block_b = trials_b[pair_index]
        header_a = block_a["header"]
        header_b = block_b["header"]
        trial_index = header_a.get("trial", pair_index)
        scenario = header_a.get("scenario", header_a.get("name", "?"))
        mismatched = [
            key for key in _WORKLOAD_KEYS
            if header_a.get(key) != header_b.get(key)
        ]
        if mismatched:
            return Divergence(
                scenario=scenario, trial=trial_index, pair_index=pair_index,
                component="header", components=("header",),
                detail="workload headers differ on "
                       + ", ".join(
                           f"{key} ({header_a.get(key)!r} vs "
                           f"{header_b.get(key)!r})" for key in mismatched
                       )
                       + " — these streams describe different workloads",
            )
        context = []
        if header_a.get("faults") != header_b.get("faults"):
            context.append(
                f"fault plans differ: {header_a.get('faults')!r} vs "
                f"{header_b.get('faults')!r}"
            )
        rounds_a = block_a["rounds"]
        rounds_b = block_b["rounds"]
        for round_a, round_b in zip(rounds_a, rounds_b):
            digested = "chain" in round_a and "chain" in round_b
            if digested and round_a["chain"] == round_b["chain"]:
                continue
            components, details = _round_components(round_a, round_b,
                                                    digested)
            if not components:
                if not digested:
                    continue
                components, details = (
                    ["chain"],
                    [f"chain {round_a.get('chain')} vs {round_b.get('chain')}"
                     " with identical round fields (divergence in an earlier"
                     " unrecorded fold?)"],
                )
            primary = next(
                (c for c in _COMPONENT_ORDER if c in components),
                components[0],
            )
            return Divergence(
                scenario=scenario, trial=trial_index, pair_index=pair_index,
                component=primary, components=tuple(components),
                round=round_a.get("round"), phase=round_a.get("phase"),
                label=round_a.get("label"),
                detail="; ".join(context + details),
            )
        if len(rounds_a) != len(rounds_b):
            longer = rounds_a if len(rounds_a) > len(rounds_b) else rounds_b
            extra = longer[min(len(rounds_a), len(rounds_b))]
            return Divergence(
                scenario=scenario, trial=trial_index, pair_index=pair_index,
                component="structure", components=("structure",),
                round=extra.get("round"), phase=extra.get("phase"),
                label=extra.get("label"),
                detail="; ".join(context + [
                    f"round counts differ: {len(rounds_a)} vs {len(rounds_b)}"
                    " (identical while both ran)"
                ]),
            )
    if len(trials_a) != len(trials_b):
        return Divergence(
            scenario="-", trial=pairs, pair_index=pairs,
            component="trials", components=("trials",),
            detail=f"trial counts differ: {len(trials_a)} vs {len(trials_b)}",
        )
    return None


def render_divergence(div: Optional[Divergence]) -> str:
    """Human-readable one-or-two-line report of a divergence."""
    if div is None:
        return "streams are identical (same rounds, same trials)"
    if div.component == "trials":
        return f"streams diverge in shape: {div.detail}"
    if div.component == "header":
        return f"{div.scenario} trial {div.trial}: {div.detail}"
    where = f"round {div.round}"
    if div.phase:
        where += f", phase {div.phase!r}"
    lines = [
        f"{div.scenario} trial {div.trial}: first divergence at {where} "
        f"(label {div.label!r})",
        f"  components: {', '.join(div.components)} — first: {div.component}",
    ]
    if div.detail:
        lines.append(f"  {div.detail}")
    return "\n".join(lines)


# ------------------------------------------------------------------ bisection
@dataclass
class FineDivergence:
    """Per-node attribution of a divergence, from a fine-mode re-run."""

    round: int
    node: Optional[str]  # repr() of the node, or None if unlocalized
    component: str  # inbox | structure | unlocalized
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "node": self.node,
            "component": self.component,
            "detail": self.detail,
        }


@dataclass
class BisectReport:
    """Outcome of a fine-mode bisection around a divergent round."""

    divergence: Divergence
    window: Tuple[int, int]
    fine: Optional[FineDivergence] = None
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "divergence": self.divergence.as_dict(),
            "window": list(self.window),
            "notes": list(self.notes),
        }
        if self.fine is not None:
            out["fine"] = self.fine.as_dict()
        return out


def _fine_rerun(header: Mapping[str, Any], window: Tuple[int, int]):
    """Re-run one trial serially with a fine-mode digesting tracer attached."""
    from repro.experiments.runner import run_trial
    from repro.obs.tracer import RoundTracer

    payload = header.get("spec")
    if payload is None:
        raise ValueError(
            "stream header does not embed the scenario spec; suite runs "
            "with --trace or --digest always do — re-generate the stream "
            "before bisecting"
        )
    spec = spec_from_payload(payload)
    trial = int(header.get("trial", 0))
    tracer = RoundTracer(digest=True, fine_rounds=window)
    try:
        run_trial(spec, trial, tracer=tracer)
    finally:
        tracer.close()
    return split_trials(tracer.events)[0]


def _first_fine_difference(
    fine_a: Mapping[str, Any], fine_b: Mapping[str, Any], round_index: int
) -> Optional[FineDivergence]:
    """Compare two fine events: the first receiver whose inbox differs."""
    map_a = fine_a.get("inbox") or {}
    map_b = fine_b.get("inbox") or {}
    for node in sorted(set(map_a) | set(map_b)):
        value_a = map_a.get(node)
        value_b = map_b.get(node)
        if value_a != value_b:
            return FineDivergence(
                round=round_index, node=node, component="inbox",
                detail=f"inbox[{node}] = {value_a!r} vs {value_b!r}",
            )
    return None


def bisect_divergence(
    events_a: Sequence[Mapping[str, Any]],
    events_b: Sequence[Mapping[str, Any]],
    divergence: Optional[Divergence] = None,
    window: int = 1,
) -> Optional[BisectReport]:
    """Localize a stream divergence to its first divergent node.

    Re-runs both sides' trials in fine mode over ``[round - window,
    round + window]`` and walks the per-receiver inbox digests in round
    order.  Returns ``None`` when the streams do not diverge at all.
    """
    if divergence is None:
        divergence = first_divergence(events_a, events_b)
    if divergence is None:
        return None
    if divergence.round is None:
        report = BisectReport(divergence=divergence, window=(0, 0))
        report.notes.append(
            "divergence has no round coordinate "
            f"(component {divergence.component}); nothing to bisect"
        )
        return report
    lo = max(1, divergence.round - window)
    hi = divergence.round + window
    report = BisectReport(divergence=divergence, window=(lo, hi))
    header_a = split_trials(events_a)[divergence.pair_index]["header"]
    header_b = split_trials(events_b)[divergence.pair_index]["header"]
    fine_block_a = _fine_rerun(header_a, (lo, hi))
    fine_block_b = _fine_rerun(header_b, (lo, hi))
    # Sanity: the re-run must reproduce the stored chain (where the stream
    # carries one) at the divergent round on each side; if it does not, the
    # original run is not reproducible in this environment and the
    # bisection is untrustworthy.
    for side, block, original in (("A", fine_block_a, events_a),
                                  ("B", fine_block_b, events_b)):
        stored = split_trials(original)[divergence.pair_index]["rounds"]
        rerun = block["rounds"]
        stored_at = {r["round"]: r.get("chain") for r in stored}
        rerun_at = {r["round"]: r.get("chain") for r in rerun}
        stored_chain = stored_at.get(divergence.round)
        if (stored_chain is not None
                and stored_chain != rerun_at.get(divergence.round)):
            report.notes.append(
                f"side {side}: fine re-run did not reproduce the stored "
                f"chain at round {divergence.round} — the original stream "
                "is not reproducible here; treat the node attribution "
                "with suspicion"
            )
    for round_index in range(lo, hi + 1):
        fine_a = fine_block_a["fine"].get(round_index)
        fine_b = fine_block_b["fine"].get(round_index)
        if fine_a is None and fine_b is None:
            continue
        if fine_a is None or fine_b is None:
            report.fine = FineDivergence(
                round=round_index, node=None, component="structure",
                detail="one side's run ended before this round",
            )
            return report
        found = _first_fine_difference(fine_a, fine_b, round_index)
        if found is not None:
            report.fine = found
            return report
    report.fine = FineDivergence(
        round=divergence.round, node=None, component="unlocalized",
        detail="no per-node inbox difference inside the window "
               "(counters-only divergence, or the window is too narrow — "
               "retry with a larger --window)",
    )
    return report


def render_bisect(report: Optional[BisectReport]) -> str:
    """Human-readable bisection report."""
    if report is None:
        return ("streams are identical (same rounds, same trials); "
                "nothing to bisect")
    lines = [render_divergence(report.divergence)]
    lo, hi = report.window
    if report.window != (0, 0):
        lines.append(f"  fine window: rounds {lo}..{hi}")
    fine = report.fine
    if fine is not None:
        if fine.node is not None:
            lines.append(
                f"  first divergent node: {fine.node} at round {fine.round} "
                f"— {fine.component} diverged first"
            )
        else:
            lines.append(f"  {fine.component}: {fine.detail}")
        if fine.node is not None and fine.detail:
            lines.append(f"    {fine.detail}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)

"""Spans recorded around the benchmark's calls into the program.

A span is (id, parent, name, start, end, attrs).  Spans are kept in memory
and written to one JSON file when the run ends; the per-layer metrics are
derived from that list alone, so the file is enough to recompute them.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

# Program layers, by module name; a span named "<layer>.<call>" belongs to
# the layer, anything else ("round", "setup", ...) to the benchmark itself.
LAYERS = ("formats", "product", "model", "check", "learn", "simulate",
          "bruteforce")


class Tracer:
    """Records nested spans; ``enabled`` False makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None,
               "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path: Path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}))


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def per_layer(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from a traced run.

    Sizes and counts come from span attributes; times are per traced round
    (median over rounds) or per set-up repetition, as named.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def root(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    # per root span (a set-up repetition, a round or the extras block):
    # summed call time and summed attributes per span name
    totals: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    attrs: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        r = root(s)["id"]
        totals[r][s["name"]] += s["end"] - s["start"]
        for k, v in s["attrs"].items():
            attrs[r][f"{s['name']}:{k}"] += v
    kinds = defaultdict(list)
    for s in spans:
        if s["parent"] is None:
            kinds[s["name"]].append(s["id"])

    def med(kind, fn):
        return _median([fn(r) for r in kinds[kind]])

    def tot(kind, *names):
        return med(kind, lambda r: sum(totals[r].get(n, 0.0) for n in names))

    def att(kind, *keys):
        return med(kind, lambda r: sum(attrs[r].get(k, 0.0) for k in keys))

    def rate(kind, count_key, *names):
        return med(kind, lambda r: attrs[r].get(count_key, 0.0)
                   / max(sum(totals[r].get(n, 0.0) for n in names), 1e-12))

    learners = ("learn.learn_sat", "learn.learn_exp")
    brutes = ("bruteforce.brute_force_psem", "bruteforce.brute_force_esem")
    m = {
        "formats.parse_model_s": tot("setup", "formats.parse_model"),
        "formats.model_states": att("setup", "formats.parse_model:states"),
        "product.build_s": tot("setup", "product.build_product"),
        "product.states": att("setup", "product.build_product:states"),
        "product.choices": att("setup", "product.build_product:choices"),
        "product.transitions": att("setup", "product.build_product:transitions"),
        "model.mec_decompose_s": tot("extras", "model.mec_decompose"),
        "model.mecs": att("extras", "model.mec_decompose:mecs"),
        "model.accepting_mec_states":
            att("extras", "model.mec_decompose:accepting_states"),
        "check.esem_opt_s": tot("round", "check.esem_optimal"),
        "check.psem_opt_s": tot("round", "check.psem_optimal"),
        "check.psem_vi_iterations": att("round", "check.psem_optimal:iterations"),
        "check.esem_of_s": tot("round", "check.esem_of"),
        "check.psem_of_s": tot("round", "check.psem_of"),
        "learn.steps": att("round", *(f"{n}:steps" for n in learners)),
        "learn.episodes": att("round", *(f"{n}:episodes" for n in learners)),
        "learn.qtable_entries":
            att("round", *(f"{n}:qtable_entries" for n in learners)),
        "learn.schedule_states":
            att("round", *(f"{n}:schedule_states" for n in learners)),
        "learn.sat_steps_per_s":
            rate("round", "learn.learn_sat:steps", "learn.learn_sat"),
        "learn.exp_steps_per_s":
            rate("round", "learn.learn_exp:steps", "learn.learn_exp"),
        "simulate.env_sample_per_s":
            rate("extras", "simulate.env_sample:calls", "simulate.env_sample"),
        "simulate.model_sample_per_s":
            rate("extras", "simulate.sample_transition:calls",
                 "simulate.sample_transition"),
        "simulate.rng_uniform_per_s":
            rate("extras", "simulate.rng_uniform:calls", "simulate.rng_uniform"),
        "bruteforce.instances":
            att("round", "bruteforce.brute_force_psem:instances"),
        "bruteforce.schedules_scored":
            att("round", *(f"{n}:schedules" for n in brutes)),
        "bruteforce.schedules_per_s":
            med("round", lambda r: sum(attrs[r].get(f"{n}:schedules", 0.0)
                                       for n in brutes)
                / max(sum(totals[r].get(n, 0.0) for n in brutes), 1e-12)),
    }
    # where the traced run's time went: each layer's share of all self time
    shares: Dict[str, float] = defaultdict(float)
    for s in spans:
        shares[_layer(s["name"])] += own[s["id"]]
    whole = sum(shares.values())
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_pct"] = 100.0 * shares[layer] / whole
    m["trace.spans"] = float(len(spans))
    return m

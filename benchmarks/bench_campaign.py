"""Campaign engine benchmark: factorized vs reference, same outcomes.

Runs the fault-injection campaign on a registry circuit (the factorized
engine) and its oracle, ``ReferenceEngine().run`` on the same drawn
population, checks their seeded outcome lists are identical, and
reports the speedup as a ``BENCH`` JSON point::

    BENCH {"bench": "campaign", "circuit": "fig4", "speedup": ..., ...}

The module also provides :func:`_ladder_campaign_harness`, the
512-section RC-ladder campaign workload the cache and resilience
benchmarks share.

Modes:

* full (default)  — ``faults_per_element = 20``, best-of-3 timing, and a
  hard gate: the factorized engine must be at least ``--min-speedup``
  (default 5×) faster than the reference engine;
* ``--smoke``     — small population, single timing pass, no speed gate
  (CI runners are noisy); the outcome-equality check still applies.

Exit status is non-zero when any enabled check fails, so the script
doubles as a CI gate next to ``python -m repro bench-smoke``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow running straight from a checkout
    _src = Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.analog import ReferenceEngine
from repro.api import CampaignConfig, Workbench
from repro.core import CampaignResult, run_campaign
from repro.core.campaign import draw_population


def _outcome_key(result):
    return [
        (o.element, o.deviation, o.severity, o.detected, o.detecting_target)
        for o in result.outcomes
    ]


def _time_engine(run, repeats: int):
    """Best-of-``repeats`` wall clock of ``run()`` and its
    (deterministic) result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _ladder_campaign_harness(n_sections: int):
    """A campaign-shaped workload at ``rc_ladder(n_sections)`` scale.

    The registry ladder is wrapped in a :class:`MixedSignalCircuit` with
    the fig3 digital block and a flash converter whose two thresholds
    are placed a few µV apart, bracketing the fault-free response: any
    fault that moves the observed gain crosses one comparator, so the
    engine's own-step early exit fires for essentially every fault —
    the same regime the fig4 campaign runs in, at 512-ladder scale.
    One hand-built test step per ladder element, all at one stimulus
    frequency near the ladder's cut-off (where single-element
    sensitivity is maximal).
    """
    from types import SimpleNamespace

    from repro.atpg import AnalogStimulus
    from repro.circuits import (
        FIG3_CONSTRAINT_LINES,
        LADDER_OUTPUT,
        LADDER_SOURCE,
        fig3_circuit,
        rc_ladder,
    )
    from repro.conversion import FlashAdc
    from repro.core.coverage import AnalogElementTest, AnalogTestStatus
    from repro.core.mixed_circuit import MixedSignalCircuit
    from repro.digital import simulate
    from repro.spice import MnaSolver

    analog = rc_ladder(n_sections)
    # Thresholds 2.5 V ± 2.5 µV: the middle ladder resistor is six
    # orders of magnitude below its neighbours.
    adc = FlashAdc(
        n_comparators=2, v_top=5.0, resistor_values=[1.0e6, 2.0, 1.0e6]
    )
    digital = fig3_circuit()
    mixed = MixedSignalCircuit(
        name=f"rc-ladder-{n_sections}-campaign",
        analog=analog,
        analog_source=LADDER_SOURCE,
        analog_output=LADDER_OUTPUT,
        adc=adc,
        digital=digital,
        converter_lines=list(FIG3_CONSTRAINT_LINES),
    )
    # Stimulus near the distributed-RC cut-off, where the end-node
    # response is sensitive to every section.
    r_ohms, c_farads = 1.0e3, 1.0e-9
    frequency = 1.0 / (n_sections**2 * r_ohms * c_farads)
    with _unit_ac(analog, LADDER_SOURCE):
        gain = abs(
            MnaSolver(analog).solve(frequency).voltage(LADDER_OUTPUT)
        )
    thresholds = adc.thresholds()
    amplitude = (thresholds[0] + thresholds[1]) / (2.0 * gain)
    # A free-input vector under which both possible code flips
    # (1,0) -> (1,1) and (1,0) -> (0,0) reach a digital output.
    lines = list(FIG3_CONSTRAINT_LINES)
    free = [name for name in digital.inputs if name not in lines]

    def words(vector, code):
        assignment = dict(vector)
        assignment.update(zip(lines, code))
        response = simulate(digital, assignment)
        return tuple(response[o] for o in digital.outputs)

    vector = None
    for bits in range(1 << len(free)):
        candidate = {
            name: (bits >> i) & 1 for i, name in enumerate(free)
        }
        good = words(candidate, (1, 0))
        if good != words(candidate, (1, 1)) and good != words(
            candidate, (0, 0)
        ):
            vector = candidate
            break
    assert vector is not None, "no propagating vector for the fig3 block"

    stimulus = AnalogStimulus(amplitude=amplitude, frequency_hz=frequency)
    steps = [
        AnalogElementTest(
            element=element,
            status=AnalogTestStatus.TESTABLE,
            parameter="AAC",
            ed_percent=40.0,
            stimulus=stimulus,
            vector=dict(vector),
            observing_output=digital.outputs[0],
        )
        for element in analog.element_names()
    ]
    return mixed, SimpleNamespace(analog_tests=steps)


class _unit_ac:
    """Temporarily drive one source at unit AC amplitude."""

    def __init__(self, circuit, source_name):
        self._source = circuit.component(source_name)

    def __enter__(self):
        self._saved = (self._source.ac, self._source.dc)
        self._source.ac, self._source.dc = 1.0, 0.0

    def __exit__(self, *exc_info):
        self._source.ac, self._source.dc = self._saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="fig4")
    parser.add_argument("--faults-per-element", type=int, default=20)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="fail unless factorized is at least this much faster",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small population, one timing pass, no speed gate",
    )
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    faults_per_element = 5 if args.smoke else args.faults_per_element
    repeats = 1 if args.smoke else args.repeats

    session = Workbench().session()
    mixed = session.circuit(args.circuit)
    report = session.run(
        mixed, stages=("sensitivity", "stimulus")
    ).report

    config = CampaignConfig(
        faults_per_element=faults_per_element, seed=args.seed
    )

    def factorized_run(config=config):
        return run_campaign(mixed, report, config=config)

    def reference_run(config=config):
        outcomes = ReferenceEngine().run(
            mixed, *draw_population(report, config)
        )
        return CampaignResult(outcomes=outcomes)

    # Warm both paths once so imports and LU caches don't skew run 1.
    warm = config.replace(faults_per_element=1)
    reference_run(warm)
    factorized_run(warm)

    t_reference, reference = _time_engine(reference_run, repeats)
    t_factorized, factorized = _time_engine(factorized_run, repeats)
    identical = _outcome_key(reference) == _outcome_key(factorized)
    speedup = t_reference / t_factorized if t_factorized > 0 else float("inf")

    point = {
        "bench": "campaign",
        "circuit": args.circuit,
        "faults_per_element": faults_per_element,
        "seed": args.seed,
        "n_faults": reference.n_injected,
        "reference_s": round(t_reference, 6),
        "factorized_s": round(t_factorized, 6),
        "speedup": round(speedup, 2),
        "identical_outcomes": identical,
        "detection_rate": round(factorized.detection_rate(), 4),
        "guaranteed_detection_rate": factorized.guaranteed_detection_rate,
        "smoke": args.smoke,
    }
    print("BENCH " + json.dumps(point, sort_keys=True))

    failures = []
    if not identical:
        failures.append("engines disagreed on the seeded outcome list")
    if factorized.n_injected == 0:
        failures.append("campaign injected no faults")
    if not args.smoke and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.1f}x below the {args.min_speedup:.1f}x gate"
        )

    if args.json:
        Path(args.json).write_text(
            json.dumps(point, indent=2, sort_keys=True) + "\n"
        )

    for failure in failures:
        print(f"bench_campaign: FAIL — {failure}", file=sys.stderr)
    if not failures:
        print(
            f"bench_campaign: ok — {reference.n_injected} faults, "
            f"{speedup:.1f}x vs reference"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

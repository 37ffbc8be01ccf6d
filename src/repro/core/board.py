"""The Figure 8 validation board (section 3.1, Table 8) — simulated.

The paper validates the method on a discrete realization: a state-variable
filter, an AD7820 8-bit ADC and a 74LS283 4-bit adder soldered on a board.
Faults are injected by swapping components; the output signal is measured
before and after.  This reproduction simulates that board:

* the *realization* draws every component once from a manufacturing
  spread (seeded), so the board's nominals differ from the design values
  exactly like soldered 1 %/5 % parts do;
* measurements carry multiplicative noise (seeded) modelling the bench
  instruments;
* a fault is injected by deviating one component by its computed
  worst-case deviation (CD); the measured parameter deviation (MPD) is
  read off the simulated board; detection through the digital block is
  checked by comparing ADC codes and adder outputs good-vs-faulty.

Table 8's claim — every injected CD forces the MPD out of its ±5 % box,
i.e. the worst-case computation is (often pessimistically) safe — is the
assertion this module regenerates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..analog import (
    DeviationMatrix,
    deviation_matrix,
    select_parameters_maxcoverage,
)
from ..circuits.state_variable import (
    SV_SOURCE,
    state_variable_filter,
    state_variable_parameters,
)
from ..conversion import BehaviouralAdc
from ..digital import ripple_adder, simulate
from ..spice import gain_at

__all__ = ["Table8Row", "StateVariableBoard"]


@dataclass
class Table8Row:
    """One Table 8 line: parameter, component, CD vs MPD."""

    parameter: str
    component: str
    #: computed worst-case component deviation, percent.
    cd_percent: float
    #: measured parameter deviation on the (noisy) board, percent.
    mpd_percent: float
    #: did the digital block's outputs change (fault observed digitally)?
    detected_digitally: bool

    @property
    def out_of_box(self) -> bool:
        """Is the measured deviation outside the ±5 % tolerance box?"""
        return self.mpd_percent > 5.0


@dataclass
class StateVariableBoard:
    """A seeded discrete realization of the Figure 8 mixed circuit."""

    seed: int = 1995
    #: soldered-part spread (1-sigma, relative); 2 % mimics 5 % parts
    #: binned by the board builder.
    component_spread: float = 0.02
    #: bench measurement noise (1-sigma, relative).
    measurement_noise: float = 0.01
    adc: BehaviouralAdc = field(default_factory=lambda: BehaviouralAdc(bits=8))

    def __post_init__(self) -> None:
        self.circuit = state_variable_filter()
        self.parameters = state_variable_parameters()
        self.adder = ripple_adder(4)
        rng = random.Random(self.seed)
        #: the board's as-built deviations, drawn once.
        self.realization: dict[str, float] = {
            element: rng.gauss(0.0, self.component_spread)
            for element in self.circuit.element_names()
        }
        self._noise_rng = random.Random(self.seed + 1)

    # ------------------------------------------------------------------
    def measure(
        self, parameter, extra_deviations: dict[str, float] | None = None
    ) -> float:
        """Bench measurement: realization + fault + instrument noise."""
        state = dict(self.realization)
        for element, deviation in (extra_deviations or {}).items():
            state[element] = state.get(element, 0.0) + deviation
        value = parameter.measure(self.circuit, state)
        noise = self._noise_rng.gauss(0.0, self.measurement_noise)
        return value * (1.0 + noise)

    def digital_response(
        self, extra_deviations: dict[str, float] | None = None,
        probe_frequency_hz: float = 1_000.0,
        probe_amplitude: float = 2.0,
    ) -> int:
        """Drive the filter, convert V3, and run the code through the adder.

        The ADC code's high nibble feeds operand A, the low nibble operand
        B of the 74LS283; the returned integer is the 5-bit sum — any
        change between good and faulty boards means the analog fault is
        visible at the digital primary outputs.
        """
        state = dict(self.realization)
        for element, deviation in (extra_deviations or {}).items():
            state[element] = state.get(element, 0.0) + deviation
        level = probe_amplitude * gain_at(
            self.circuit, SV_SOURCE, "V3", probe_frequency_hz, state
        )
        code = self.adc.convert(level)
        assignment = {"CIN": 0}
        for bit in range(4):
            assignment[f"B{bit}"] = (code >> bit) & 1
            assignment[f"A{bit}"] = (code >> (bit + 4)) & 1
        values = simulate(self.adder, assignment)
        total = sum(values[f"S{bit}"] << bit for bit in range(4))
        return total | (values["COUT"] << 4)

    # ------------------------------------------------------------------
    def table8(
        self, matrix: DeviationMatrix | None = None
    ) -> list[Table8Row]:
        """Regenerate Table 8: inject each component's CD, measure MPD.

        ``matrix`` may be passed to reuse a precomputed worst-case
        deviation matrix (the expensive part).
        """
        if matrix is None:
            matrix = deviation_matrix(self.circuit, self.parameters)
        selection = select_parameters_maxcoverage(matrix)
        rows: list[Table8Row] = []
        baseline_digital = self.digital_response()
        for element in matrix.elements:
            covered = selection.element_coverage.get(element)
            if covered is None:
                continue
            parameter_name, cd_percent = covered
            parameter = next(
                p for p in self.parameters if p.name == parameter_name
            )
            result = matrix.results[(parameter_name, element)]
            injected = result.direction * (cd_percent / 100.0)
            nominal = self.measure(parameter)
            faulty = self.measure(parameter, {element: injected})
            mpd = 100.0 * abs(faulty - nominal) / abs(nominal)
            digital = self.digital_response({element: injected})
            rows.append(
                Table8Row(
                    parameter=parameter_name,
                    component=element,
                    cd_percent=cd_percent,
                    mpd_percent=mpd,
                    detected_digitally=digital != baseline_digital,
                )
            )
        rows.sort(key=lambda r: (r.parameter, r.component))
        return rows

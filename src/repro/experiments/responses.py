"""Figures 2/7/8 sanity artifacts: frequency responses of the three filters.

The paper's circuit figures are schematics; their measurable counterpart
in the reproduction is each filter's frequency response, which the other
experiments rely on.  This experiment samples all three and reports the
headline numbers (DC/peak gains, center/cut-off frequencies).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuits import (
    bandpass_filter,
    chebyshev_filter,
    state_variable_filter,
)
from ..core import format_table
from ..spice import (
    FrequencyResponse,
    cutoff_high,
    cutoff_low,
    dc_gain,
    log_frequencies,
    peak_gain,
    sweep,
)

__all__ = ["ResponsesResult", "run"]


@dataclass
class ResponsesResult:
    """Sampled responses plus headline measurements per filter."""

    responses: dict[str, FrequencyResponse]
    headlines: dict[str, dict[str, float]]

    def render(self) -> str:
        headers = ["filter", "metric", "value"]
        rows = []
        for name, metrics in self.headlines.items():
            for metric, value in metrics.items():
                rows.append([name, metric, f"{value:.4g}"])
        return format_table(
            headers, rows,
            title="Figures 2/7/8: filter responses (headline numbers)",
        )

    def to_document(self) -> dict:
        """Every sampled ``H(f)`` (real and imaginary parts) and every
        headline number as JSON, floats exact."""
        return {
            "experiment": "responses",
            "responses": {
                name: {
                    "frequencies_hz": list(response.frequencies_hz),
                    "real": [h.real for h in response.transfer_values],
                    "imag": [h.imag for h in response.transfer_values],
                }
                for name, response in self.responses.items()
            },
            "headlines": {
                name: dict(metrics) for name, metrics in self.headlines.items()
            },
        }


def run(points_per_decade: int = 15) -> ResponsesResult:
    """Sweep all three filters and extract their headline parameters."""
    grid = log_frequencies(10.0, 1.0e6, points_per_decade)
    responses: dict[str, FrequencyResponse] = {}
    headlines: dict[str, dict[str, float]] = {}

    bandpass = bandpass_filter()
    responses["fig2-bandpass"] = sweep(bandpass, "Vin", "V1", grid)
    f0, a_peak = peak_gain(bandpass, "Vin", "V1", 50.0, 2.0e5)
    headlines["fig2-bandpass"] = {
        "f0 [Hz]": f0,
        "A1 (peak gain)": a_peak,
        "fc1 [Hz]": cutoff_low(bandpass, "Vin", "V1", 50.0, 2.0e5),
        "fc2 [Hz]": cutoff_high(bandpass, "Vin", "V1", 50.0, 2.0e5),
    }

    chebyshev = chebyshev_filter()
    responses["fig7-chebyshev"] = sweep(chebyshev, "Vin", "Vo", grid)
    headlines["fig7-chebyshev"] = {
        "Adc": dc_gain(chebyshev, "Vin", "Vo"),
        "fc [Hz]": cutoff_high(chebyshev, "Vin", "Vo", 100.0, 1.0e6),
    }

    state_variable = state_variable_filter()
    responses["fig8-state-variable(V3)"] = sweep(
        state_variable, "Vin", "V3", grid
    )
    headlines["fig8-state-variable"] = {
        "A3dc (LP)": dc_gain(state_variable, "Vin", "V3"),
        "fh1 [Hz] (HP)": cutoff_high(
            state_variable, "Vin", "V1", 100.0, 5.0e6
        ),
    }
    return ResponsesResult(responses, headlines)


if __name__ == "__main__":
    print(run().render())

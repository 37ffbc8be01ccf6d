"""Figure 6: OBDDs of the mixed-circuit outputs with composite values.

Regenerates the paper's propagation picture: the Figure 3 circuit with
``l0 = D`` and ``l2 = D̄`` (the analog fault flips the lower comparator
down and would flip the upper one up), the output BDDs over the free
inputs plus ``D``, and the derived propagation decision — which outputs
contain a ``D`` node and which free-input assignment sensitizes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atpg import CircuitBdd, CompositeValue, propagate_composite
from ..bdd import to_dot, to_text
from ..circuits import fig3_circuit

__all__ = ["Figure6Result", "run"]


@dataclass
class Figure6Result:
    """The output BDDs and the propagation verdicts."""

    texts: dict[str, str]
    dots: dict[str, str]
    observable_outputs: list[str]
    vector: dict[str, int] | None
    observing_output: str | None

    def to_document(self) -> dict:
        """Every output BDD (text and DOT) and the propagation verdict.

        Node labels are depth-first positions, so the document is a
        function of the BDDs, not of the manager that built them.
        """
        return {
            "experiment": "figure6",
            "texts": dict(self.texts),
            "dots": dict(self.dots),
            "observable_outputs": list(self.observable_outputs),
            "vector": None if self.vector is None else dict(self.vector),
            "observing_output": self.observing_output,
        }

    def render(self) -> str:
        lines = ["Figure 6: output OBDDs with l0 = D, l2 = D̄"]
        for output, text in self.texts.items():
            lines.append(f"--- {output} ---")
            lines.append(text)
        lines.append(
            "outputs containing a D node: "
            + (", ".join(self.observable_outputs) or "none")
        )
        if self.vector is not None:
            assignment = ", ".join(
                f"{k}={v}" for k, v in sorted(self.vector.items())
            )
            lines.append(
                f"propagating assignment: {assignment} -> observe "
                f"{self.observing_output}"
            )
        return "\n".join(lines)


def run(
    pinned_values: dict[str, CompositeValue] | None = None,
) -> Figure6Result:
    """Build the Figure 6 BDDs (default pinning: l0 = D, l2 = D̄)."""
    circuit = fig3_circuit()
    cbdd = CircuitBdd(circuit)
    if pinned_values is None:
        pinned_values = {
            "l0": CompositeValue.D,
            "l2": CompositeValue.D_BAR,
        }
    propagation = propagate_composite(cbdd, pinned_values)
    texts = {
        output: to_text(cbdd.mgr, function)
        for output, function in propagation.output_functions.items()
    }
    dots = {
        output: to_dot(cbdd.mgr, function, name=output)
        for output, function in propagation.output_functions.items()
    }
    return Figure6Result(
        texts=texts,
        dots=dots,
        observable_outputs=propagation.observable_outputs,
        vector=propagation.vector,
        observing_output=propagation.observing_output,
    )


if __name__ == "__main__":
    print(run().render())

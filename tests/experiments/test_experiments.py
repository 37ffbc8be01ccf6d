"""Tests for the experiment regenerators (fast subset).

The heavyweight experiments (table3/table4/table8 at full size) run in the
paper-golden tests; here we exercise the fast ones end-to-end and the
heavy ones through reduced configurations.
"""

import pytest

from repro.experiments import (
    example2,
    figure6,
    table1,
    table2,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.runner import EXPERIMENTS, run_all


class TestExample2:
    def test_reproduces_paper_counts(self):
        result = example2.run()
        assert result.unconstrained.n_faults == 18
        assert result.unconstrained.n_untestable == 0
        assert result.constrained.n_untestable == 2

    def test_render_contains_fault_names(self):
        text = example2.run().render()
        assert "l3 s-a-0" in text and "l5 s-a-0" in text


class TestTable1:
    def test_ten_rows(self):
        result = table1.run()
        assert len(result.choices) == 10

    def test_render_table(self):
        text = table1.run().render()
        assert "Table 1" in text
        assert "Dbar" in text and "D" in text


class TestTable2:
    def test_glossary_renders(self):
        text = table2.run().render()
        assert "Table 2" in text
        assert "Adc" in text and "flcf" in text and "Vref" in text


class TestTable4Small:
    def test_single_circuit_run(self):
        result = table4.run(circuits=("c432",))
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.n_inputs == 36
        assert row.with_constraints.n_untestable >= row.without.n_untestable
        assert "Table 4" in result.render()


class TestTable5Small:
    def test_single_circuit_run(self):
        result = table5.run(circuits=("c432",))
        row = result.rows[0]
        assert row.n_converter_lines == 15
        assert 0 <= row.blocked_d <= 15
        assert len(row.observability_d) == 15


class TestTable6:
    def test_tent(self):
        result = table6.run()
        eds = result.coverage.ed_percent
        assert max(eds) == eds[7]
        assert "R8,R9" in result.render()

    def test_small_ladder(self):
        result = table6.run(n_comparators=5)
        assert len(result.coverage.ed_percent) == 5


class TestTable7Small:
    def test_single_circuit(self):
        result = table7.run(circuits=("c432",))
        assert set(result.coverages) == {"c432"}
        assert "Table 7" in result.render()


class TestFigure6:
    def test_paper_scenario(self):
        result = figure6.run()
        assert "Vo2" in result.observable_outputs
        assert result.vector == {"l1": 1, "l4": 0}
        assert "digraph" in result.dots["Vo2"]

    def test_render(self):
        text = figure6.run().render()
        assert "outputs containing a D node: Vo2" in text


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "example1", "example2", "table1", "table2", "table3",
            "table4", "table5", "table6", "table7", "table8",
            "figure6", "responses",
        }

    def test_run_all_subset(self):
        text = run_all(["example2", "figure6"])
        assert "######## example2" in text
        assert "######## figure6" in text

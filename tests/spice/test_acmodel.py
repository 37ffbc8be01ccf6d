"""Differential tests: the compiled AC model against a plain stamp walk.

The oracle is test-local and independent of :mod:`repro.spice.acmodel`:
each element's value under the deviation state (``effective_value``),
the source driven at 1 V by writing its ``ac``/``dc`` levels
(:func:`mutating_unit_source`, the scope the library used to ship),
every component stamped into a fresh
:class:`~repro.spice.backends.SystemAssembler`, ``finish(gmin=GMIN)``,
and one backend ``solve_once`` (:func:`oracle_solution`).  Every
comparison is ``==`` — the compiled model, and ``MnaSolver(circuit,
source=...)`` which solves through it, must reproduce the oracle bit
for bit, not approximately.  A model derived for another deviation state
(:meth:`AcModel.at_state`, a stamp delta) must equal a fresh compile of
that state the same way, down to its dense-form arrays.
"""

import copy
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from repro.analog import ParameterKind
from repro.api.registry import default_registry
from repro.core.fingerprint import analog_fingerprint
from repro.circuits import (
    bandpass_filter,
    bandpass_parameters,
    chebyshev_filter,
    chebyshev_parameters,
    state_variable_filter,
    state_variable_parameters,
)
from repro.spice import (
    VCCS,
    AcModel,
    AnalogCircuit,
    AnalogError,
    MnaSolver,
    Resistor,
    SingularSystemError,
    Solution,
    SystemAssembler,
    VoltageSource,
    peak_gain,
    resolve_backend,
)

#: the oracle's own ``GMIN`` (1e-12 S from every node to ground).
GMIN = 1.0e-12

REGISTRY = default_registry()


def _analog_block(name):
    """(circuit, source) of a registry analog circuit or mixed block."""
    spec = REGISTRY.get(name)
    built = spec.build()
    if spec.kind == "mixed":
        return built.analog, built.analog_source
    source = next(c for c in built.sources() if isinstance(c, VoltageSource))
    return built, source.name


def _dense(name) -> bool:
    circuit, _ = _analog_block(name)
    return resolve_backend("auto", n_nodes=len(circuit.nodes())).name == "dense"


#: every registry analog circuit on the dense backend, plus the analog
#: blocks of the fig4 and Example 3 mixed circuits.
DENSE_CIRCUITS = [
    name
    for name in REGISTRY.names("analog") + ["fig4", "example3-c432"]
    if _dense(name)
]


def all_device_circuit() -> AnalogCircuit:
    """Every component type, including both s-nonlinear ones."""
    c = AnalogCircuit("all-devices")
    c.vsource("V1", "in", "0", dc=0.3, ac=0.7)
    c.isource("I1", "0", "a", dc=1e-4, ac=2e-4)
    c.resistor("R1", "in", "a", 1_000.0)
    c.capacitor("C1", "a", "0", 47e-9)
    c.capacitor("C2", "a", "b", 10e-9)
    c.inductor("L1", "b", "c", 10e-3)
    c.resistor("R2", "c", "0", 2_200.0)
    c.finite_opamp("A1", "c", "d", "e", gain=1.0e5, gbw=2.0e6)
    c.resistor("R3", "d", "0", 1_000.0)
    c.resistor("R4", "e", "d", 4_700.0)
    c.capacitor("C3", "e", "d", 1e-9)
    c.vcvs("E1", "f", "0", "e", "0", 0.5)
    c.add(VCCS("G1", "g", "0", "f", "0", 1e-3))
    c.resistor("R5", "g", "0", 1_000.0)
    c.opamp("A2", "0", "h", "k")
    c.resistor("R6", "g", "h", 1_000.0)
    c.resistor("R7", "h", "k", 3_300.0)
    return c


# ----------------------------------------------------------------------
# The scalar oracle (the pre-compiled-model measurement path)
# ----------------------------------------------------------------------
@contextmanager
def mutating_unit_source(circuit, source_name):
    """Drive a voltage source at 1 V by writing its levels, restoring
    them on exit — the old way of measuring a transfer function."""
    source = circuit.component(source_name)
    assert isinstance(source, VoltageSource)
    saved = (source.ac, source.dc)
    source.ac, source.dc = 1.0, 1.0
    try:
        yield source
    finally:
        source.ac, source.dc = saved


def reference_solution(circuit, frequency_hz, backend="auto", state=None):
    """The circuit at deviation ``state``, stamped component by component
    into a :class:`SystemAssembler` and solved once."""
    state = circuit.deviation_state(state)
    node_index = {node: index for index, node in enumerate(circuit.nodes())}
    s = 2j * math.pi * frequency_hz if frequency_hz else 0.0
    assembler = SystemAssembler(node_index, dtype=complex)
    for component in circuit.components:
        value = (
            circuit.effective_value(component.name, state)
            if component.has_value
            else 0.0
        )
        component.stamp(assembler, s, value)
    system = assembler.finish(gmin=GMIN)
    try:
        vector = resolve_backend(backend, n_nodes=len(node_index)).solve_once(
            system
        )
    except SingularSystemError as exc:
        raise AnalogError(
            f"singular MNA system for {circuit.name!r} at {frequency_hz} Hz: "
            f"{exc}"
        ) from exc
    return Solution(
        {node: complex(vector[index]) for node, index in node_index.items()},
        {tag: complex(vector[row]) for tag, row in assembler.branch_rows.items()},
        frequency_hz,
    )


def oracle_solution(circuit, source, frequency_hz, state=None, backend="auto"):
    with mutating_unit_source(circuit, source):
        return reference_solution(circuit, frequency_hz, backend, state)


def oracle_transfer(circuit, source, output, frequency_hz, state=None):
    return oracle_solution(circuit, source, frequency_hz, state).voltage(output)


def oracle_gain(circuit, source, output, frequency_hz, state=None):
    return abs(oracle_transfer(circuit, source, output, frequency_hz, state))


def oracle_peak(circuit, source, output, f_low, f_high, state, coarse_points=120):
    def gain(f):
        return oracle_gain(circuit, source, output, f, state)

    log_low, log_high = math.log10(f_low), math.log10(f_high)
    best_log_f, best_mag = log_low, -1.0
    for index in range(coarse_points):
        log_f = log_low + (log_high - log_low) * index / (coarse_points - 1)
        magnitude = gain(10.0**log_f)
        if magnitude > best_mag:
            best_mag, best_log_f = magnitude, log_f
    step = (log_high - log_low) / (coarse_points - 1)
    result = minimize_scalar(
        lambda lf: -gain(10.0**lf),
        bounds=(max(log_low, best_log_f - 2 * step), min(log_high, best_log_f + 2 * step)),
        method="bounded",
        options={"xatol": 1e-7},
    )
    f_peak = 10.0**result.x
    return f_peak, gain(f_peak)


def oracle_cutoff(circuit, source, output, f_low, f_high, state, high_side):
    f_peak, peak = oracle_peak(circuit, source, output, f_low, f_high, state)
    target = peak / math.sqrt(2.0)
    end = f_high if high_side else f_low
    if oracle_gain(circuit, source, output, end, state) >= target:
        raise AnalogError("no crossing")
    a, b = (f_peak, f_high) if high_side else (f_low, f_peak)
    return 10.0 ** brentq(
        lambda lf: oracle_gain(circuit, source, output, 10.0**lf, state) - target,
        math.log10(a),
        math.log10(b),
        xtol=1e-9,
    )


def oracle_measure(parameter, circuit, state):
    args = (circuit, parameter.source, parameter.output)
    window = (parameter.f_low, parameter.f_high)
    kind = parameter.kind
    if kind is ParameterKind.DC_GAIN:
        return oracle_gain(*args, 0.0, state)
    if kind is ParameterKind.AC_GAIN:
        return oracle_gain(*args, parameter.frequency_hz, state)
    if kind is ParameterKind.PEAK_GAIN:
        return oracle_peak(*args, *window, state)[1]
    if kind is ParameterKind.CENTER_FREQUENCY:
        return oracle_peak(*args, *window, state)[0]
    return oracle_cutoff(
        *args, *window, state, high_side=kind is ParameterKind.CUTOFF_HIGH
    )


def random_state(circuit, seed, spread=0.3):
    rng = np.random.default_rng(seed)
    return {
        name: float(rng.uniform(-spread, spread))
        for name in circuit.element_names()
        if rng.random() < 0.6
    }


FREQUENCIES = [0.0, 1.0, 37.5, 1_000.0, 2_512.3, 1.0e5, 9.9e6]


# ----------------------------------------------------------------------
# H(f) == the reference stamp walk, bit for bit
# ----------------------------------------------------------------------
class TestTransferMatchesReference:
    def test_registry_covers_the_finite_opamp_board(self):
        assert "state-variable" in DENSE_CIRCUITS
        assert "bandpass" in DENSE_CIRCUITS and "fig4" in DENSE_CIRCUITS

    @pytest.mark.parametrize("name", DENSE_CIRCUITS)
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_every_node_every_frequency(self, name, seed):
        circuit, source = _analog_block(name)
        state = {} if seed is None else random_state(circuit, seed)
        grid = FREQUENCIES + [float(f) for f in np.logspace(0, 7, 9)]
        grid += [np.float64(1234.5)]  # scipy searches pass numpy scalars
        for output in circuit.nodes():
            model = AcModel(circuit, source, output, state)
            expected = [
                oracle_transfer(circuit, source, output, f, state) for f in grid
            ]
            assert [model.transfer(f) for f in grid] == expected
            assert model.transfers(grid) == expected
            nonzero = [f for f in grid if f]
            assert model.transfers(nonzero) == expected[1:]

    @pytest.mark.parametrize("seed", [None, 3, 4])
    def test_all_device_types(self, seed):
        circuit = all_device_circuit()
        state = {} if seed is None else random_state(circuit, seed)
        for output in circuit.nodes():
            model = AcModel(circuit, "V1", output, state)
            expected = [
                oracle_transfer(circuit, "V1", output, f, state)
                for f in FREQUENCIES
            ]
            assert [model.transfer(f) for f in FREQUENCIES] == expected
            assert model.transfers(FREQUENCIES[1:]) == expected[1:]

    def test_chunked_stack_equals_unchunked(self, monkeypatch):
        circuit = bandpass_filter()
        grid = [float(f) for f in np.logspace(1, 6, 50)]
        whole = AcModel(circuit, "Vin", "V1").transfers(grid)
        monkeypatch.setattr("repro.spice.acmodel.STACK_ENTRIES", 1)
        assert AcModel(circuit, "Vin", "V1").transfers(grid) == whole

    def test_ground_output_and_errors(self):
        circuit = bandpass_filter()
        assert AcModel(circuit, "Vin", "0").transfers([0.0, 10.0]) == [0j, 0j]
        with pytest.raises(AnalogError, match="no node named"):
            AcModel(circuit, "Vin", "nowhere")
        with pytest.raises(AnalogError, match="not a voltage source"):
            AcModel(circuit, "R1", "V1")
        with pytest.raises(AnalogError, match="no component named"):
            AcModel(circuit, "Vin", "V1", {"NOPE": 0.1})
        with pytest.raises(AnalogError, match="non-positive"):
            AcModel(circuit, "Vin", "V1", {"R1": -1.0})

    @pytest.mark.parametrize("name", DENSE_CIRCUITS + ["all-devices"])
    @pytest.mark.parametrize("seed", [None, 8])
    def test_unit_driven_solver_equals_mutating_oracle(self, name, seed):
        # MnaSolver(source=...) stamps a unit-driven copy of the source
        # instead of writing it: the whole solution (every node voltage
        # and branch current) is unchanged, at DC and at AC alike.
        if name == "all-devices":
            circuit, source = all_device_circuit(), "V1"
        else:
            circuit, source = _analog_block(name)
        state = {} if seed is None else random_state(circuit, seed)
        levels = (circuit.component(source).ac, circuit.component(source).dc)
        for f in FREQUENCIES:
            expected = oracle_solution(circuit, source, f, state)
            model = AcModel(circuit, source, deviations=state)
            solved = [Solution.of(model, model.solve(f), f)]
            if not state:
                solved.append(MnaSolver(circuit, source=source).solve(f))
            for ours in solved:
                assert ours._voltages == expected._voltages
                assert ours._branch_currents == expected._branch_currents
        source_component = circuit.component(source)
        assert (source_component.ac, source_component.dc) == levels

    def test_compiling_never_writes_the_circuit(self):
        circuit = state_variable_filter()
        source = circuit.component("Vin")
        before = (analog_fingerprint(circuit), source.ac, source.dc)
        AcModel(circuit, "Vin", "V1", {"R1": 0.4, "C1": -0.1}).transfers(
            [0.0, 100.0, 1e4]
        )
        assert (analog_fingerprint(circuit), source.ac, source.dc) == before


# ----------------------------------------------------------------------
# Every measurement kind == the old scalar loops
# ----------------------------------------------------------------------
PARAMETER_SETS = [
    ("bandpass", bandpass_filter, bandpass_parameters),
    ("chebyshev", chebyshev_filter, chebyshev_parameters),
    ("state-variable", state_variable_filter, state_variable_parameters),
]


class TestMeasureMatchesScalarLoops:
    @pytest.mark.parametrize(
        "build,parameters", [entry[1:] for entry in PARAMETER_SETS],
        ids=[entry[0] for entry in PARAMETER_SETS],
    )
    @pytest.mark.parametrize("seed", [None, 5])
    def test_each_kind(self, build, parameters, seed):
        circuit = build()
        state = {} if seed is None else random_state(circuit, seed, spread=0.1)
        for parameter in parameters():
            assert parameter.measure(circuit, state) == oracle_measure(
                parameter, circuit, state
            ), parameter.name

    def test_every_kind_is_covered(self):
        kinds = {
            parameter.kind
            for _name, _build, parameters in PARAMETER_SETS
            for parameter in parameters()
        }
        assert kinds == set(ParameterKind)



# ----------------------------------------------------------------------
# Errors: window validation and singular stacks
# ----------------------------------------------------------------------
def singular_circuit() -> AnalogCircuit:
    """Two ideal sources in parallel: singular at every frequency."""
    c = AnalogCircuit("parallel-sources")
    c.vsource("V1", "in", "0", ac=1.0)
    c.vsource("V2", "in", "0", ac=1.0)
    c.resistor("R1", "in", "out", 1_000.0)
    c.resistor("R2", "out", "0", 1_000.0)
    return c


class TestErrors:
    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_coarse_points_below_two(self, points):
        with pytest.raises(AnalogError, match="coarse_points >= 2"):
            peak_gain(bandpass_filter(), "Vin", "V1", 10.0, 1e5, points)

    def test_two_coarse_points_work(self):
        f_peak, gain = peak_gain(bandpass_filter(), "Vin", "V1", 50.0, 2e5, 2)
        assert f_peak > 0 and gain > 0

    def test_singular_stack_raises_the_scalar_error(self):
        circuit = singular_circuit()
        with pytest.raises(AnalogError) as scalar:
            oracle_peak(circuit, "V1", "out", 10.0, 1e5, {})
        with pytest.raises(AnalogError) as stacked:
            peak_gain(circuit, "V1", "out", 10.0, 1e5)
        assert str(stacked.value) == str(scalar.value)
        assert str(stacked.value).startswith(
            "singular MNA system for 'parallel-sources' at 10.0 Hz"
        )


# ----------------------------------------------------------------------
# Sparse path (>= SPARSE_AUTO_THRESHOLD nodes)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSparseLadder:
    def test_rc_ladder_256_matches_oracle(self):
        circuit, source = _analog_block("rc-ladder-256")
        assert not _dense("rc-ladder-256")
        output = circuit.nodes()[-1]
        state = random_state(circuit, 7, spread=0.05)
        model = AcModel(circuit, source, output, state)
        grid = [0.0, 10.0, 1_000.0, 2.5e4, 1e6]
        expected = [oracle_transfer(circuit, source, output, f, state) for f in grid]
        assert model.transfers(grid) == expected
        assert peak_gain(
            circuit, source, output, 1.0, 1e6, deviations=state
        ) == oracle_peak(circuit, source, output, 1.0, 1e6, state)


class TestNonDenseBackend:
    """The per-frequency triplet path, forced on a small circuit."""

    @pytest.mark.parametrize("seed", [None, 6])
    def test_sparse_all_device_types(self, seed):
        circuit = all_device_circuit()
        state = {} if seed is None else random_state(circuit, seed)
        for output in circuit.nodes():
            model = AcModel(circuit, "V1", output, state, backend="sparse")
            expected = [
                oracle_solution(
                    circuit, "V1", f, state, backend="sparse"
                ).voltage(output)
                for f in FREQUENCIES
            ]
            assert model.transfers(FREQUENCIES) == expected

    def test_frequency_dependent_stamp_pattern_is_rejected(self):
        class Switching(Resistor):
            def stamp(self, ctx, s, value):
                if abs(s) < 1e3:
                    super().stamp(ctx, s, value)

        circuit = AnalogCircuit("switching")
        circuit.vsource("V1", "in", "0")
        circuit.resistor("R1", "in", "out", 1_000.0)
        circuit.add(Switching("R2", "out", "0", 1_000.0))
        model = AcModel(circuit, "V1", "out")
        assert model.transfer(1.0) == oracle_transfer(circuit, "V1", "out", 1.0)
        with pytest.raises(AnalogError, match="changes with frequency"):
            model.transfer(1.0e6)


# ----------------------------------------------------------------------
# Stamp deltas: AcModel.at_state == a fresh compile, entry for entry
# ----------------------------------------------------------------------
DELTA_GRID = [float(f) for f in np.logspace(0, 7, 200)]


def dense_form(model):
    """Every array and list the dense evaluation reads, bit for bit
    (``repr`` and raw bytes keep the sign of zero)."""
    return (
        repr(model._program),
        model._constant.tobytes(),
        [(flats.tobytes(), coefs.tobytes()) for flats, coefs in model._s_layers],
        repr(model._dynamic_sums),
    )


def assert_same_model(derived, fresh, grid=DELTA_GRID):
    assert derived._state == fresh._state
    assert derived.transfers(grid) == fresh.transfers(grid)
    for f in (0.0, 2_512.3, np.float64(1234.5)):
        assert derived.transfer(f) == fresh.transfer(f)
    if fresh.backend.name == "dense":
        assert dense_form(derived) == dense_form(fresh)


def registry_block(name):
    if name == "all-devices":
        return all_device_circuit(), "V1"
    return _analog_block(name)


def single_element_states(circuit, limit=10):
    names = circuit.element_names()
    names = names[:: math.ceil(len(names) / limit)]
    return [{name: deviation} for name in names for deviation in (0.2, -0.35)]


class TestStampDelta:
    @pytest.mark.parametrize("name", DENSE_CIRCUITS + ["all-devices"])
    def test_every_dense_circuit(self, name):
        circuit, source = registry_block(name)
        nodes = circuit.nodes()
        outputs = sorted({nodes[-1], nodes[len(nodes) // 2]})
        states = single_element_states(circuit) + [
            random_state(circuit, seed) for seed in (11, 12)
        ]
        for output in outputs:
            base = AcModel(circuit, source, output)
            before = dense_form(base)
            for state in states:
                assert_same_model(
                    base.at_state(state), AcModel(circuit, source, output, state)
                )
            assert dense_form(base) == before  # deriving never writes the base

    @pytest.mark.parametrize("name", DENSE_CIRCUITS + ["all-devices"])
    def test_circuit_carrying_its_own_deviations(self, name):
        # A copy whose component values hold ``value * (1 + d)`` (how the
        # ladder bisection measures a deviated converter) is the nominal
        # circuit at state ``d``: a fresh compile and a derivation from
        # the nominal model both equal the carrier's model, bit for bit.
        circuit, source = registry_block(name)
        output = circuit.nodes()[-1]
        state = circuit.deviation_state(random_state(circuit, 13))
        carrier = copy.deepcopy(circuit)
        for element in state:
            carrier.component(element).value = circuit.effective_value(
                element, state
            )
        assert analog_fingerprint(carrier) != analog_fingerprint(circuit)
        carried = AcModel(carrier, source, output)
        base = AcModel(circuit, source, output)
        for derived in (
            AcModel(circuit, source, output, state),
            base.at_state(state),
        ):
            assert derived.transfers(DELTA_GRID) == carried.transfers(DELTA_GRID)
            if carried.backend.name == "dense":
                assert dense_form(derived) == dense_form(carried)
        # The carrier's own values are its nominal: lifting a deviation
        # off the circuit lands on the carrier's value, not the circuit's.
        element = next(iter(state))
        assert carrier.effective_value(element) == circuit.effective_value(
            element, state
        )
        assert AcModel(carrier, source, output, {element: 0.0})._state == {}

    @pytest.mark.parametrize(
        "name", [n for n in REGISTRY.names("analog") if not _dense(n)]
    )
    def test_sparse_circuits_compile_in_full(self, name):
        circuit, source = registry_block(name)
        output = circuit.nodes()[-1]
        state = random_state(circuit, 14, spread=0.05)
        assert_same_model(
            AcModel(circuit, source, output).at_state(state),
            AcModel(circuit, source, output, state),
        )

    def test_sparse_backend_compiles_in_full(self):
        circuit = all_device_circuit()
        base = AcModel(circuit, "V1", "g", backend="sparse")
        for state in ({"R1": 0.3}, random_state(circuit, 15)):
            assert_same_model(
                base.at_state(state),
                AcModel(circuit, "V1", "g", state, backend="sparse"),
                grid=FREQUENCIES,
            )

    @pytest.mark.parametrize(
        "state,full",
        [
            ({}, 0),
            ({"R1": 0.3, "C2": -0.2, "G1": 0.1}, 0),  # re-stamped in place
            ({"L1": 0.3}, 1),  # s-nonlinear
            ({"A1": -0.5}, 1),  # s-nonlinear
            ({"E1": 0.2}, 1),  # owns a branch row
            ({"R1": 0.3, "L1": 0.3}, 1),
        ],
    )
    def test_what_compiles_in_full(self, monkeypatch, state, full):
        circuit = all_device_circuit()
        base = AcModel(circuit, "V1", "k")
        compiles = []
        compile_ac = AcModel._compile_ac

        def counting(model):
            compiles.append(model)
            return compile_ac(model)

        monkeypatch.setattr(AcModel, "_compile_ac", counting)
        derived = base.at_state(state)
        assert len(compiles) == full
        assert (derived is base) == (not state)
        assert_same_model(derived, AcModel(circuit, "V1", "k", state))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_states(self, data):
        name = data.draw(st.sampled_from(["fig4", "state-variable", "all-devices"]))
        circuit, source = registry_block(name)
        names = circuit.element_names()
        chosen = data.draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True)
        )
        deviation = st.floats(-0.9, 3.0, allow_nan=False)
        state = {element: data.draw(deviation) for element in chosen}
        # The base's own state, which the derived one must lift.
        own = data.draw(st.dictionaries(st.sampled_from(names), deviation, max_size=2))
        output = data.draw(st.sampled_from(circuit.nodes()))
        base = AcModel(circuit, source, output, own)
        assert_same_model(
            base.at_state(state),
            AcModel(circuit, source, output, state),
            grid=DELTA_GRID[::5],
        )

import importlib.resources as resources
import re

import numpy as np
import pytest

from references import reference_objective, segment_durations
from spincluster import synthesis
from spincluster.hamiltonian import resonance_spacing
from spincluster.noise import OUNoise
from spincluster.states import CZ, I2, SWAP, Z, rx, rz
from spincluster.synthesis import (
    DDSequence, SynthesisReport, TARGETS, UnitCompiler, dd_unit, deserialize_sequence,
    gate_fidelity, noisy_gate_fidelity, sequence_unitary, serialize_sequence,
    synthesize,
)


def _packaged_text(name):
    return resources.files("spincluster").joinpath(f"data/{name}.ddseq").read_text()


def _scipy_minimize(fun, x0, lb, ub, maxiter):
    """synthesis.minimize's call made through scipy.optimize.minimize: its
    OptimizeResult."""
    from scipy.optimize import minimize

    return minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=[(lb, ub)] * len(x0),
                    options=dict(maxiter=maxiter, ftol=synthesis._FTOL, gtol=synthesis._GTOL))


class TestDDUnit:
    def test_unitary(self, siv):
        comp = UnitCompiler(siv)
        u = dd_unit(9.9e-8, comp)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_invalid_spacing(self, siv):
        with pytest.raises(ValueError):
            dd_unit(0.0, UnitCompiler(siv))

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_spacing(self, siv, tau):
        # NaN <= 0 is false, so only a finiteness check rejects NaN
        with pytest.raises(ValueError, match="all spacings must be finite and positive"):
            dd_unit(tau, UnitCompiler(siv))

    def test_decoupling_at_unconditional_spacing(self, siv):
        # at the unconditional spacing both conditional nuclear rotations
        # agree: the unit factorizes as (electron phase) x (nuclear rotation)
        comp = UnitCompiler(siv)
        tau = resonance_spacing(siv, 1, "unconditional")
        u = dd_unit(tau, comp)
        up, um = u[:2, :2], u[2:, 2:]
        assert abs(abs(np.trace(up.conj().T @ um)) / 2 - 1) < 1e-6

    def test_sequence_composition(self, siv):
        # one-unit sequence with trivial gates is just the unit itself
        comp = UnitCompiler(siv)
        seq = DDSequence((5e-8,), ("I", "I"))
        np.testing.assert_allclose(sequence_unitary(seq, comp),
                                   dd_unit(5e-8, comp), atol=1e-12)

    def test_sequence_associativity(self, siv):
        comp = UnitCompiler(siv)
        seq = DDSequence((5e-8, 7e-8), ("I", "Rx90", "Rz90"))
        u = sequence_unitary(seq, comp)
        manual = (np.kron(np.array([[1, 0], [0, 1]], complex), I2))
        from spincluster.synthesis import _GATE_4X4
        manual = _GATE_4X4["Rz90"] @ dd_unit(7e-8, comp) @ _GATE_4X4["Rx90"] @ dd_unit(5e-8, comp) @ _GATE_4X4["I"]
        np.testing.assert_allclose(u, manual, atol=1e-12)

    def test_durations(self):
        seq = DDSequence((1e-8, 2e-8, 3e-8), ("I", "I", "I", "I"))
        assert abs(seq.total_duration - 4 * 6e-8) < 1e-20
        np.testing.assert_allclose(
            segment_durations(seq),
            [1e-8, 2e-8, 1e-8, 2e-8, 4e-8, 2e-8, 3e-8, 6e-8, 3e-8])

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            DDSequence((1e-8,), ("I",))  # needs k+1 gates
        with pytest.raises(ValueError):
            DDSequence((-1e-8,), ("I", "I"))
        with pytest.raises(ValueError):
            DDSequence((1e-8,), ("I", "Hadamard"))
        for tau in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                DDSequence((1e-8, tau), ("I", "I", "I"))


class TestGateFidelity:
    def test_exact(self):
        assert abs(gate_fidelity(CZ, CZ) - 1) < 1e-12

    def test_global_phase_invariant(self):
        assert abs(gate_fidelity(np.exp(0.7j) * SWAP, SWAP) - 1) < 1e-12

    def test_orthogonal(self):
        # CZ and CZ * (Z x I) differ by a traceless factor
        assert gate_fidelity(CZ @ np.kron(Z, I2), CZ) < 1e-12

    def test_mismatch(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(2, dtype=complex), CZ)

    def test_clipped_to_one(self):
        # |Tr(U^dag U)| / 4 of this U rounds to 1 + 2e-16
        u = np.kron(rx(0.1), rz(0.2))
        assert gate_fidelity(u, u) <= 1.0


class TestPackagedSequences:
    @pytest.mark.parametrize("name", ["cz", "swap", "rx90_nuclear", "rz90_nuclear"])
    def test_replay_matches_stored_fidelity(self, name):
        report, p = deserialize_sequence(_packaged_text(name))
        comp = UnitCompiler(p)
        u = sequence_unitary(report.sequence, comp)
        f = gate_fidelity(u, TARGETS[name])
        assert abs(f - report.unitary_fidelity) < 1e-12
        assert report.met_threshold
        assert f >= 0.999

    @pytest.mark.parametrize("name", ["cz", "swap"])
    def test_replay_fidelity_at_most_one(self, name):
        # the CZ file stores 1 + 4e-16 from the search's own rounding
        report, p = deserialize_sequence(_packaged_text(name))
        u = sequence_unitary(report.sequence, UnitCompiler(p))
        assert gate_fidelity(u, TARGETS[name]) <= 1.0

    def test_report_fidelity_at_most_one(self):
        # the CZ file stores 1 + 4e-16; the report clips it, the file keeps it
        text = _packaged_text("cz")
        assert "fidelity 1.0000000000000004\n" in text
        report, _ = deserialize_sequence(text)
        assert report.unitary_fidelity <= 1.0

    def test_durations_within_bounds(self):
        cz_rep, _ = deserialize_sequence(_packaged_text("cz"))
        swap_rep, _ = deserialize_sequence(_packaged_text("swap"))
        assert cz_rep.sequence.total_duration <= 2.2e-6
        assert swap_rep.sequence.total_duration <= 3.2e-6


class TestSynthesize:
    def test_identity_shortcut(self, siv):
        rep = synthesize("identity", siv)
        assert rep.sequence.k == 0
        assert rep.met_threshold and abs(rep.unitary_fidelity - 1) < 1e-12

    def test_report_clips_the_search_fidelity(self, siv, monkeypatch):
        # the search may round past 1; it compares that value, the report reads 1
        over = 1.0 + 4.0 * np.finfo(float).eps

        def polish(x, names, target, compiler, lb, ub, maxiter=None):
            return x, over, 1

        monkeypatch.setattr(synthesis, "_polish", polish)
        monkeypatch.setattr(synthesis, "_discrete_sweep", lambda x, names, *a: (names, over, 1))
        rep = synthesize("cz", siv, ks=[2], restarts=1, hops=0)
        assert rep.met_threshold and rep.unitary_fidelity == 1.0

    def test_cheap_nuclear_rotation(self, siv):
        rep = synthesize("rz90_nuclear", siv, threshold=0.99, ks=[4],
                         restarts=6, hops=2, seed=5)
        assert rep.met_threshold
        comp = UnitCompiler(siv)
        u = sequence_unitary(rep.sequence, comp)
        assert gate_fidelity(u, TARGETS["rz90_nuclear"]) >= 0.99

    def test_deterministic(self, siv):
        a = synthesize("rz90_nuclear", siv, threshold=0.9, ks=[4], restarts=2,
                       hops=1, seed=9)
        b = synthesize("rz90_nuclear", siv, threshold=0.9, ks=[4], restarts=2,
                       hops=1, seed=9)
        assert a.sequence == b.sequence
        assert a.unitary_fidelity == b.unitary_fidelity

    def test_validation(self, siv):
        with pytest.raises(ValueError):
            synthesize("cz", siv, threshold=1.5)
        # no unit count left to search, or one below 1
        for kw in (dict(ks=range(2, 1, 2)), dict(ks=[]), dict(ks=[0]),
                   dict(ks=[4, -2])):
            with pytest.raises(ValueError, match="unit counts"):
                synthesize("cz", siv, **kw)
        with pytest.raises(KeyError):
            synthesize("toffoli", siv)
        # no search at all, or a negative number of perturbation hops
        for kw, match in ((dict(restarts=0), "restarts"), (dict(restarts=-3), "restarts"),
                          (dict(hops=-1), "hops")):
            with pytest.raises(ValueError, match=match):
                synthesize("rz90_nuclear", siv, ks=[4], **kw)
        # reversed or empty spacing bounds, the default ub included (0.7 of
        # the first unconditional resonance spacing); the message names both
        ub = 0.7 * resonance_spacing(siv, 1, "unconditional")
        for lb, ub_kw, shown in ((5e-8, 2e-8, "lb = 5e-08 >= ub = 2e-08"),
                                 (3e-8, 3e-8, "lb = 3e-08 >= ub = 3e-08"),
                                 (ub, None, f"lb = {ub} >= ub = {ub}")):
            with pytest.raises(ValueError, match=shown):
                synthesize("rz90_nuclear", siv, ks=[4], lb=lb, ub=ub_kw)
        # lb < ub, but the random starts, drawn from [max(lb, 2e-11), 0.75 ub],
        # have no room; the message names the bounds and the interval
        with pytest.raises(ValueError, match=r"lb = 5e-08 and ub = 6e-08.*"
                                             r"\[5e-08, 4\.49+\d*e-08\] is empty"):
            synthesize("rz90_nuclear", siv, ks=[4], restarts=1, lb=5e-8, ub=6e-8)

    @pytest.mark.parametrize("name,value", [
        ("lb", np.nan), ("lb", -1e-7), ("lb", 0.0), ("lb", np.inf),
        ("ub", np.nan), ("ub", -1e-7), ("ub", np.inf),
        ("duration_limit", np.nan), ("duration_limit", -1.0), ("duration_limit", 0.0),
        ("duration_limit", np.inf),
    ])
    def test_bounds_must_be_finite_and_positive(self, siv, monkeypatch, name, value):
        # each is refused, by name, before the search builds anything; a NaN
        # fails every comparison, so the reversed-bounds checks let it through
        def no_search(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(synthesis, "UnitCompiler", no_search)
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0"):
            synthesize("rz90_nuclear", siv, ks=[2], restarts=1, hops=0, **{name: value})

    def test_minimize_forwards_to_scipy(self, siv, monkeypatch):
        # the package's minimize drives scipy's compiled L-BFGS-B step with
        # the loop of scipy.optimize.minimize: a polish ends on the same
        # spacings, cost and evaluation count, bit for bit, from starts inside
        # the bounds, on them and outside them (clipped), and when maxiter
        # stops it
        compiler = UnitCompiler(siv)
        target_h = compiler.to_eigenbasis(CZ.conj().T)
        rng = np.random.default_rng(4)
        lb, ub = 1e-9, 9e-8
        for k in (1, 4, 10, 17):
            names = [synthesis._GATE_NAMES[i] for i in rng.integers(5, size=k + 1)]
            inside = rng.uniform(lb, ub, size=k)
            on_bounds = inside.copy()
            on_bounds[::3], on_bounds[1::3] = lb, ub
            outside = inside.copy()
            outside[::2], outside[1::2] = -inside[::2], inside[1::2] + ub
            for x0, maxiter in ((inside, 800), (on_bounds, 800), (outside, 800), (inside, 2)):
                args = (x0, lb, ub, maxiter)
                x, cost, nfev = synthesis.minimize(
                    synthesis._objective(names, target_h, compiler), *args)
                theirs = _scipy_minimize(synthesis._objective(names, target_h, compiler), *args)
                assert np.array_equal(x, theirs.x)
                assert cost == theirs.fun and nfev == theirs.nfev
            assert theirs.status == (k > 1)  # the last run stops at maxiter past k = 1
        # a whole search is the same with scipy's minimize in its place
        def through_scipy(*args):
            res = _scipy_minimize(*args)
            return res.x, res.fun, res.nfev

        kw = dict(threshold=0.99, ks=[4], restarts=2, hops=2, seed=5)
        forwarded = synthesize("rz90_nuclear", siv, **kw)
        monkeypatch.setattr(synthesis, "minimize", through_scipy)
        direct = synthesize("rz90_nuclear", siv, **kw)
        assert forwarded == direct

    def test_minimize_evaluates_once_per_point(self):
        # the objective runs once for each new point L-BFGS-B asks for: nfev
        # calls in all, never twice in a row at the same x, bit for bit; and
        # the caller's start is left as it was, though the routine steps its
        # own x in place
        calls = []
        centre = np.array([0.2, 3.0, 1.5])

        def fun(x):
            calls.append(x.tobytes())
            return float((x - centre) @ (x - centre)), 2 * (x - centre)

        x0 = np.array([0.9, 0.5, 1.25])
        start = x0.copy()
        x, _, nfev = synthesis.minimize(fun, x0, 0.5, 2.0, 800)
        np.testing.assert_allclose(x, [0.5, 2.0, 1.5])
        assert len(calls) == nfev > 2
        assert all(a != b for a, b in zip(calls, calls[1:]))
        np.testing.assert_array_equal(x0, start)

    @pytest.mark.parametrize("lb,ub", [
        (1.0, 0.1), (0.5, 0.5), (0.0, 1.0), (-0.1, 1.0), (np.nan, 1.0), (0.1, np.nan),
        (0.1, np.inf),
    ])
    def test_minimize_refuses_bounds_outside_0_lb_ub(self, lb, ub):
        # setulb stops at its start on reversed bounds without asking for a
        # value, so the loop would return a cost of 0 it never evaluated
        def fun(x):
            raise AssertionError("the objective was evaluated")

        with pytest.raises(ValueError, match=f"got lb = {lb} and ub = {ub}$"):
            synthesis.minimize(fun, np.full(3, 0.5), lb, ub, 10)

    def test_missing_lbfgsb_extension_named(self, monkeypatch, tmp_path):
        # a scipy without the compiled step where it is looked for fails with
        # an ImportError naming scipy's version and the directory searched
        import scipy

        (tmp_path / "optimize").mkdir()
        synthesis._lbfgsb_setulb.cache_clear()
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        try:
            with pytest.raises(ImportError, match=(
                    f"scipy {re.escape(scipy.__version__)} .* "
                    f"in {re.escape(str(tmp_path / 'optimize'))}$")):
                synthesis._lbfgsb_setulb()
        finally:
            synthesis._lbfgsb_setulb.cache_clear()

    def test_duration_limit_respected(self, siv):
        rep = synthesize("rz90_nuclear", siv, threshold=0.9, ks=[4],
                         restarts=4, hops=2, seed=5, duration_limit=1.5e-6)
        if rep.met_threshold:
            assert rep.sequence.total_duration <= 1.5e-6

    def test_spacing_bounds_respected(self, siv):
        rep = synthesize("rz90_nuclear", siv, threshold=0.9, ks=[4],
                         restarts=3, hops=1, seed=5, lb=2e-9, ub=8e-8)
        assert all(2e-9 - 1e-15 <= t <= 8e-8 + 1e-15 for t in rep.sequence.tau_f)


class TestNoisyFidelity:
    def test_vanishing_noise(self, siv):
        rep, p = deserialize_sequence(_packaged_text("cz"))
        quiet = OUNoise(b=1e-3, tau_c=1e-3, seed=0)
        f, se = noisy_gate_fidelity(rep.sequence, p, quiet, trials=100)
        assert f > 1 - 1e-9
        assert se < 1e-9

    def test_monotone_in_bath_strength(self, siv):
        rep, p = deserialize_sequence(_packaged_text("cz"))
        fids = []
        for b in (1e3, 3e4, 3e5):
            noise = OUNoise(b=b, tau_c=1e-2, seed=0)
            f, _ = noisy_gate_fidelity(rep.sequence, p, noise, trials=300)
            fids.append(f)
        assert fids[0] > fids[1] > fids[2]

    def test_strong_noise_degrades(self, siv):
        # note fidelity loss is set by how well each sequence refocuses the
        # bath, not by duration alone; both must clearly degrade here
        rep, p = deserialize_sequence(_packaged_text("cz"))
        swap_rep, _ = deserialize_sequence(_packaged_text("swap"))
        noise = OUNoise(b=1e6, tau_c=1e-6, seed=0)
        for seq in (rep.sequence, swap_rep.sequence):
            f, se = noisy_gate_fidelity(seq, p, noise, trials=300)
            assert 0.9 < f < 0.9999
            assert 0 < se < 1e-3

    def test_trials_floor(self, siv):
        rep, p = deserialize_sequence(_packaged_text("cz"))
        with pytest.raises(ValueError):
            noisy_gate_fidelity(rep.sequence, p, OUNoise(b=1e4, tau_c=1e-3), trials=10)


class TestSerialization:
    def test_round_trip(self, siv):
        seq = DDSequence((1.25e-8, 3.5e-8), ("I", "Rx90", "Rz90"))
        rep = SynthesisReport(seq, 0.97532, 123, "custom", False)
        text = serialize_sequence(rep, siv)
        rep2, p2 = deserialize_sequence(text)
        assert rep2.sequence == seq
        assert rep2.unitary_fidelity == rep.unitary_fidelity
        assert rep2.target_name == "custom"
        assert rep2.met_threshold is False
        assert p2 == siv

    def test_version_check(self, siv):
        seq = DDSequence((1e-8,), ("I", "I"))
        text = serialize_sequence(SynthesisReport(seq, 1.0, 0, "custom", True), siv)
        bad = text.replace("format_version 1", "format_version 99")
        with pytest.raises(ValueError):
            deserialize_sequence(bad)

    def test_missing_unit_line_rejected(self):
        # the packaged CZ says k 10; without its last unit line it is not a
        # nine-unit sequence
        text = _packaged_text("cz")
        last = [ln for ln in text.splitlines(keepends=True) if ln.startswith("unit ")][-1]
        with pytest.raises(ValueError, match="k 10 but has 9 unit lines"):
            deserialize_sequence(text.replace(last, ""))

    @pytest.mark.parametrize("field", [
        "format_version", "target", "a_par_hz", "a_perp_hz", "gamma_e_hz_per_t",
        "gamma_n_hz_per_t", "b_field_t", "fidelity", "met_threshold", "k", "final_gate",
    ])
    def test_missing_field_named(self, field):
        lines = _packaged_text("cz").splitlines(keepends=True)
        text = "".join(ln for ln in lines if ln.split()[0] != field)
        with pytest.raises(ValueError, match=f"missing {field}$"):
            deserialize_sequence(text)

    def test_blank_line_named(self):
        lines = _packaged_text("cz").splitlines(keepends=True)
        text = "".join(lines[:5] + ["\n"] + lines[5:])
        with pytest.raises(ValueError, match="line 6 is blank"):
            deserialize_sequence(text)

    def test_unknown_key_named(self):
        # the summary line that `spincluster synthesize` prints, stored in the file
        text = _packaged_text("cz") + "target=cz k=10 duration=1.7997us met_threshold=True\n"
        with pytest.raises(ValueError, match=r"line 22 has the unknown key 'target=cz'"):
            deserialize_sequence(text)

    def test_unit_line_without_gate_named(self):
        # line 11 is the first unit line; the leading blank line is counted
        lines = _packaged_text("cz").splitlines(keepends=True)
        assert lines[10].startswith("unit ")
        lines[10] = " ".join(lines[10].split()[:2]) + "\n"
        with pytest.raises(ValueError, match="line 12 is not 'unit <spacing> <gate>'"):
            deserialize_sequence("\n" + "".join(lines))

    def test_field_without_value_named(self):
        lines = _packaged_text("cz").splitlines(keepends=True)
        assert lines[1].startswith("target ")
        lines[1] = "target\n"
        with pytest.raises(ValueError, match="line 2 has no value for 'target'"):
            deserialize_sequence("".join(lines))

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_spacing_rejected(self, siv, tau):
        seq = DDSequence((1e-8,), ("I", "I"))
        text = serialize_sequence(SynthesisReport(seq, 1.0, 0, "custom", True), siv)
        unit = next(ln for ln in text.splitlines() if ln.startswith("unit "))
        bad = text.replace(unit, f"unit {tau} I")
        with pytest.raises(ValueError, match="finite"):
            deserialize_sequence(bad)


# criterion 3's CZ job cut to three restarts at one unit count (~0.4 s)
class TestObjective:
    @pytest.mark.parametrize("target", ["cz", "swap"])
    @pytest.mark.parametrize("k", [1, 2, 4, 8, 9, 12, 16, 17, 20])
    def test_matches_the_reference_bit_for_bit(self, siv, k, target):
        # the last bit of the objective steers criterion 3's SWAP search, so
        # writing into a shared workspace must not move any bit of it
        compiler = UnitCompiler(siv)
        target_h = compiler.to_eigenbasis(TARGETS[target].conj().T)
        rng = np.random.default_rng([k, len(target)])
        for _ in range(3):
            names = [synthesis._GATE_NAMES[i] for i in rng.integers(5, size=k + 1)]
            taus = rng.uniform(1e-9, 9e-8, size=k)
            cost, grad = synthesis._objective(names, target_h, compiler)(taus)
            ref_cost, ref_grad = reference_objective(names, target_h, compiler)(taus)
            assert cost == ref_cost
            assert grad.shape == (k,) and np.array_equal(grad, ref_grad)

    def test_objectives_sharing_a_workspace_do_not_interfere(self, siv):
        # two live objectives of 6 units and one of 9, called in turn: each
        # result is that of an objective on a compiler of its own, and no
        # gradient is a view of the workspace the next call overwrites
        compiler = UnitCompiler(siv)
        target_h = compiler.to_eigenbasis(CZ.conj().T)
        rng = np.random.default_rng(8)
        gates = [["I", "Rx90", "Rz90", "Rx180", "Ry90", "I", "Rx90"],
                 ["Ry90", "Rx180", "I", "Rz90", "Rz90", "Rx90", "Rx180"],
                 ["Rx90", "I", "Rx180", "Ry90", "I", "Rz90", "Rx90", "Ry90", "I", "Rz90"]]
        live = [synthesis._objective(names, target_h, compiler) for names in gates]
        calls = []
        for which in (0, 1, 2, 0, 0, 2, 1, 0, 1, 2):
            taus = rng.uniform(1e-9, 9e-8, size=len(gates[which]) - 1)
            calls.append((which, taus, live[which](taus)))
        shared = [a for k in (6, 9) for a in vars(compiler.polish_workspace(k)).values()
                  if isinstance(a, np.ndarray)]
        for which, taus, (cost, grad) in calls:
            fresh = UnitCompiler(siv)
            own_cost, own_grad = synthesis._objective(
                gates[which], fresh.to_eigenbasis(CZ.conj().T), fresh)(taus)
            assert cost == own_cost and np.array_equal(grad, own_grad)
            assert not any(np.shares_memory(grad, a) for a in shared)


REDUCED_CZ = dict(threshold=0.999, seed=101, restarts=3, ks=[10], ub=9e-8, duration_limit=2.2e-6)


class TestStoppingRule:
    def test_polish_stops_on_progress_not_noise(self, siv, monkeypatch):
        # an evaluation made once 1 - F is within 1e-12 of where its polish
        # ends gains nothing the search compares; a stopping tolerance at
        # F's float resolution spends about half of all evaluations so
        late = total = 0
        inner = synthesis.minimize

        def counted(fun, *args):
            nonlocal late, total
            values = []

            def recorded(x):
                out = fun(x)
                values.append(out[0])
                return out

            res = inner(recorded, *args)
            settled = next(i for i, v in enumerate(values) if abs(v - res[1]) <= 1e-12)
            late += len(values) - 1 - settled
            total += len(values)
            return res

        monkeypatch.setattr(synthesis, "minimize", counted)
        synthesize("cz", siv, **REDUCED_CZ)
        assert total > 0
        assert late <= 0.2 * total, (late, total)

    @pytest.mark.parametrize("target,kw", [
        ("cz", REDUCED_CZ),
        ("rz90_nuclear", dict(threshold=0.99, ks=[4], restarts=6, hops=2, seed=5)),
    ])
    def test_last_bit_of_the_objective_does_not_steer(self, siv, monkeypatch, target, kw):
        # shift F by one ulp up or down, the sign fixed by the bits of tau
        base = synthesize(target, siv, **kw)
        exact = synthesis._objective
        calls = 0

        def shifted_objective(*args):
            cost_and_gradient = exact(*args)

            def shifted(taus):
                nonlocal calls
                calls += 1
                cost, g = cost_and_gradient(taus)
                f = 1 - cost
                up = np.asarray(taus, float).view(np.uint64).sum() % 2
                return 1 - (f + (1 if up else -1) * np.spacing(f)), g

            return shifted

        monkeypatch.setattr(synthesis, "_objective", shifted_objective)
        moved = synthesize(target, siv, **kw)
        assert calls > 0  # the search polished through the shifted objective
        assert moved.sequence.electron_gates == base.sequence.electron_gates
        np.testing.assert_allclose(moved.sequence.tau_f, base.sequence.tau_f, rtol=1e-6, atol=0)

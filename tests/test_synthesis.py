import importlib.resources as resources

import numpy as np
import pytest

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


class TestDDUnit:
    def test_unitary(self, siv):
        comp = UnitCompiler(siv)
        u = dd_unit(9.9e-8, comp)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_invalid_spacing(self, siv):
        with pytest.raises(ValueError):
            dd_unit(0.0, UnitCompiler(siv))

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
            seq.segment_durations(),
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

    def test_minimize_forwards_to_scipy(self, siv, monkeypatch):
        # the package's minimize imports scipy's on first call and hands on
        # every argument; the search is the same as with scipy's directly
        from scipy.optimize import minimize as scipy_minimize

        kw = dict(threshold=0.99, ks=[4], restarts=2, hops=2, seed=5)
        assert callable(synthesis.minimize)
        forwarded = synthesize("rz90_nuclear", siv, **kw)
        monkeypatch.setattr(synthesis, "minimize", scipy_minimize)
        direct = synthesize("rz90_nuclear", siv, **kw)
        assert forwarded == direct

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

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_spacing_rejected(self, siv, tau):
        seq = DDSequence((1e-8,), ("I", "I"))
        text = serialize_sequence(SynthesisReport(seq, 1.0, 0, "custom", True), siv)
        unit = next(ln for ln in text.splitlines() if ln.startswith("unit "))
        bad = text.replace(unit, f"unit {tau} I")
        with pytest.raises(ValueError, match="finite"):
            deserialize_sequence(bad)


# criterion 3's CZ job cut to three restarts at one unit count (~0.4 s)
REDUCED_CZ = dict(threshold=0.999, seed=101, restarts=3, ks=[10], ub=9e-8, duration_limit=2.2e-6)


class TestStoppingRule:
    def test_polish_stops_on_progress_not_noise(self, siv, monkeypatch):
        # an evaluation made once 1 - F is within 1e-12 of where its polish
        # ends gains nothing the search compares; a stopping tolerance at
        # F's float resolution spends about half of all evaluations so
        late = total = 0
        inner = synthesis.minimize

        def counted(fun, x0, **kw):
            nonlocal late, total
            values = []

            def recorded(x):
                out = fun(x)
                values.append(out[0])
                return out

            res = inner(recorded, x0, **kw)
            settled = next(i for i, v in enumerate(values) if abs(v - res.fun) <= 1e-12)
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
        exact = synthesis._fidelity_and_gradient

        def shifted(taus, *args):
            f, g = exact(taus, *args)
            up = np.asarray(taus, float).view(np.uint64).sum() % 2
            return f + (1 if up else -1) * np.spacing(f), g

        monkeypatch.setattr(synthesis, "_fidelity_and_gradient", shifted)
        moved = synthesize(target, siv, **kw)
        assert moved.sequence.electron_gates == base.sequence.electron_gates
        np.testing.assert_allclose(moved.sequence.tau_f, base.sequence.tau_f, rtol=1e-6, atol=0)

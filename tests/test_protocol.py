import itertools
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from references import dense_branch_sum, dense_run
from spincluster import protocol
from spincluster.noise import OUNoise, ou_from_coherence
from spincluster.clifford import Tableau, completion_corrections, lc_equivalence
from spincluster.protocol import (
    ProtocolSpec, ScheduleItem, build_schedule, component_fidelities, emit_photon,
    find_corrections, ideal_library, ideal_target, linear_graph_state,
    packaged_gate_library, run, schedule_labels, target_tableau,
    verify_appendix_a, wall_clock_model,
)
from spincluster.states import (
    CZ, H, I2, X, Y, Z, QuantumState, RoleKind, apply_gate, electron, nuclear,
    photon,
)
from spincluster.synthesis import DDSequence


def _spec(m, n, style="pedagogical", **kw):
    return ProtocolSpec(m=m, n=n, gate_library=ideal_library(), style=style, **kw)


class TestSchedule:
    def test_step_by_step_gate_list(self):
        # M=3, N=1 from all-spins-down: initialisation rotations via SWAP
        # cycling, rail entangling, emission round, restore, re-rotation
        labels = schedule_labels(build_schedule(_spec(3, 1)))
        assert labels == [
            "RY", "SWAP12", "RY", "SWAP12", "SWAP13", "RY", "SWAP13",
            "CZ12", "CZ13",
            "SWAP12", "E", "SWAP12", "E", "SWAP13", "E", "SWAP13", "SWAP12",
            "RY", "SWAP12", "RY", "SWAP13", "RY", "SWAP13",
            "M1", "M2", "M3",
        ]

    def test_lean_gate_list(self):
        labels = schedule_labels(build_schedule(_spec(2, 1, style="lean")))
        assert labels == [
            "RY", "SWAP12", "RY",
            "CZ12", "E", "RY", "SWAP12", "E", "RY",
            "M1", "M2",
        ]

    def test_counts_scale_with_columns(self):
        for m, n in ((2, 1), (2, 3), (3, 2), (4, 1)):
            sched = build_schedule(_spec(m, n))
            emits = sum(1 for s in sched if s.kind == "emit")
            czs = sum(1 for s in sched if s.kind == "gate" and s.gate == "cz")
            measures = sum(1 for s in sched if s.kind == "measure")
            assert emits == m * n
            assert czs == (m - 1) * n
            assert measures == m

    def test_zero_columns(self):
        sched = build_schedule(_spec(2, 0))
        assert sum(1 for s in sched if s.kind == "emit") == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            _spec(1, 1)
        with pytest.raises(ValueError):
            _spec(3, 1, style="lean")
        with pytest.raises(ValueError):
            _spec(2, -1)
        with pytest.raises(ValueError):
            _spec(2, 1, completion="discard")
        with pytest.raises(KeyError):
            ProtocolSpec(m=2, n=1, gate_library={"cz": CZ})
        # a noisy run's standard error needs two trajectories
        noise = ou_from_coherence(3e-6, 300e-6)
        for trials in (0, 1):
            with pytest.raises(ValueError, match="at least 2 trials"):
                _spec(2, 1, noise=noise, trials=trials)

    def test_wall_clock_model(self, packaged):
        lib, params, _ = packaged
        spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params,
                            style="lean")
        sched = build_schedule(spec)
        expect = sum(
            lib[s.gate].total_duration for s in sched
            if s.kind == "gate" and s.gate in lib
        )
        assert abs(wall_clock_model(spec) - expect) < 1e-15
        # ideal unitaries are modelled as instantaneous
        assert wall_clock_model(_spec(2, 2)) == 0.0


class TestEmission:
    def test_plus_state_entangles(self):
        s = QuantumState(np.array([1, 1], complex) / np.sqrt(2), (electron(),))
        out = emit_photon(s)
        np.testing.assert_allclose(out.data, [1, 0, 0, 1] / np.sqrt(2))

    def test_repeated_emission_ghz(self):
        s = QuantumState(np.array([1, 1], complex) / np.sqrt(2), (electron(),))
        for _ in range(3):
            s = emit_photon(s)
        expect = np.zeros(16)
        expect[0] = expect[-1] = 1 / np.sqrt(2)
        np.testing.assert_allclose(s.data, expect, atol=1e-12)

    def test_basis_state_copies(self):
        s = QuantumState(np.array([0, 1], complex), (electron(),))
        out = emit_photon(s)
        np.testing.assert_allclose(out.data, [0, 0, 0, 1])


class TestNoiselessRuns:
    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_unit_fidelity_with_ideal_gates(self, m, n):
        res = run(_spec(m, n))
        assert abs(res.fidelity - 1) < 1e-9
        assert res.weights.shape == (1,)

    def test_lean_unit_fidelity(self):
        for n in (1, 2):
            res = run(_spec(2, n, style="lean"))
            assert abs(res.fidelity - 1) < 1e-9

    def test_target_is_entangled(self):
        # M=2, N=1 target has entanglement across the two photons
        t = ideal_target(2, 1)
        # squared Schmidt values of photon 0 against the rest
        lam = np.linalg.svd(t.data.reshape(2, -1), compute_uv=False) ** 2
        assert lam.max() < 1 - 1e-6

    def test_lean_and_pedagogical_targets_match_up_to_rail_order(self):
        # the lean schedule emits the second column's rails in the opposite
        # order; after swapping photons 2 and 3 the targets are locally
        # equivalent
        ped, lean = target_tableau(2, 2), target_tableau(2, 2, "lean")
        ped_vec, lean_vec = ideal_target(2, 2).data, ideal_target(2, 2, "lean").data
        _check_lc(ped, ped_vec, lean, lean_vec, equivalent=False)
        lean.swap(2, 3)
        swapped = np.moveaxis(lean_vec.reshape((2,) * 4), 2, 3).ravel()
        _check_lc(ped, ped_vec, lean, swapped, equivalent=True)

    def test_postselect_probability(self):
        res = run(_spec(2, 1, completion="postselect"))
        assert 0 < res.postselect_probability < 1
        assert abs(res.fidelity - 1) < 1e-9

    def test_corrected_matches_postselect_fidelity(self):
        for seed in (0, 1, 2):
            res = run(_spec(2, 2, seed=seed))
            assert abs(res.fidelity - 1) < 1e-9

    def test_component_fidelities_ideal(self):
        res = run(_spec(2, 1), components=True)
        assert abs(res.prep_fidelity - 1) < 1e-9
        assert abs(res.block_fidelity - 1) < 1e-9

    def test_block_starts_from_prepared_register(self):
        # an identity in place of CZ acts like CZ on |00>, so a building
        # block run from the initial register would read 1; from the
        # prepared register the missing entanglement shows
        lib = dict(ideal_library(), cz=np.eye(4, dtype=complex))
        prep, block = component_fidelities(
            ProtocolSpec(m=2, n=1, gate_library=lib, style="lean")
        )
        assert abs(prep - 1) < 1e-12
        assert block < 1 - 1e-3

    def test_component_fidelities_need_no_dense_executor(self, packaged, monkeypatch):
        # both segments run through the contraction, and the block starts
        # from the register read off the preparation's ideal frame
        def refuse(*args, **kwargs):
            raise AssertionError("the dense executor ran")

        monkeypatch.setattr(protocol, "_execute", refuse)
        lib, params, _ = packaged
        spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params, style="lean",
                            noise=ou_from_coherence(3e-6, 300e-6, seed=1), trials=20, seed=1)
        prep, block = component_fidelities(spec)
        assert 0.99 < prep <= 1 and 0.99 < block <= 1
        prep, block = component_fidelities(_spec(3, 1, init_one=True))
        assert abs(prep - 1) <= 1e-12 and abs(block - 1) <= 1e-12


_CORRECTION_GRID = [
    (m, n, style, init_one)
    for m, n, style in [(2, n, "lean") for n in range(1, 5)]
    + [(2, 1, "pedagogical"), (2, 2, "pedagogical"), (2, 3, "pedagogical"),
       (3, 1, "pedagogical"), (3, 2, "pedagogical")]
    for init_one in (False, True)
]


def _dense_branches(spec, items=None):
    """Completion branches of the dense ideal-gate run, one unnormalised
    photonic vector per spin outcome: the reference for the tableau."""
    items = build_schedule(spec) if items is None else items
    return protocol._execute(spec, items).reshape(2 ** spec.m, -1)


def _paulis(x, z):
    """Photon Pauli X^x Z^z on each wire, as a list of 2x2 factors."""
    return [np.linalg.matrix_power(X, int(a)) @ np.linalg.matrix_power(Z, int(b))
            for a, b in zip(x, z)]


def _signed_pauli(x, z, r):
    """Dense tableau row: (-1)^r times the Pauli string with (1, 1) = Y."""
    return (-1) ** r * 1j ** int(np.sum(x & z)) * reduce(np.kron, _paulis(x, z))


def _mixture(vecs, weights):
    """rho = V^T V* / sum w of completed vectors V (T, 2^(MN))."""
    return vecs.T @ vecs.conj() / weights.sum()


def _target_stabiliser(spec):
    """Photon part of a stabiliser generator with no spin x part: a Pauli
    string that fixes the target up to phase, as its local factors."""
    tab = Tableau(spec.m, ones=spec.init_one).run(build_schedule(spec))
    k = len(tab.echelon(range(spec.m)))
    row = next(i for i in range(k, len(tab.r)) if tab.x[i, spec.m:].any())
    return _paulis(tab.x[row, spec.m:], tab.z[row, spec.m:])


class TestCorrections:
    def test_all_branches_correctable(self):
        # every completion outcome is reachable, so the ideal register's
        # outcomes are uniform and `_complete` reads p_ideal(o) as 2^-M
        shapes = [(2, n, "lean") for n in range(5)]
        shapes += [(m, n, "pedagogical") for m in (2, 3, 4) for n in range(4)]
        for (m, n, style), init_one in itertools.product(shapes, (False, True)):
            corr = find_corrections(_spec(m, n, style=style, init_one=init_one))
            assert len(corr) == 2 ** m
            assert all(c is not None for c in corr.values()), (m, n, style, init_one)

    def test_reference_branch_identity(self):
        corr = find_corrections(_spec(2, 1))
        for u in corr[(1, 1)]:
            np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("m,n,style,init_one", _CORRECTION_GRID)
    def test_against_dense_branches(self, m, n, style, init_one):
        # the residual check the random-start search needed in the package:
        # every corrected branch must equal the all-|1> branch up to phase
        spec = _spec(m, n, style=style, init_one=init_one)
        corr = find_corrections(spec)
        branches = _dense_branches(spec)
        probs = np.sum(np.abs(branches) ** 2, axis=1)
        ref = branches[-1] / np.sqrt(probs[-1])
        paulis = (np.eye(2), X, Y, Z)
        assert list(corr) == list(np.ndindex(*(2,) * m))
        for (bits, locals_), vec, p in zip(corr.items(), branches, probs):
            assert (locals_ is None) == (p < 1e-12), bits
            if locals_ is None:
                continue
            assert len(locals_) == m * n
            for u in locals_:
                assert any(abs(abs(np.trace(q.conj().T @ u)) - 2) <= 1e-12 for q in paulis)
            out = (vec / np.sqrt(p))[None]
            for i, u in enumerate(locals_):
                out = protocol._apply_matrix_vec(out, u, [i], m * n)
            phase = np.vdot(ref, out[0])
            assert np.max(np.abs(out[0] - phase * ref)) <= 1e-12
            assert abs(abs(phase) - 1) <= 1e-12
        again = find_corrections(spec)
        for bits, locals_ in corr.items():
            assert (again[bits] is None) == (locals_ is None)
            assert locals_ is None or all(
                np.array_equal(a, b) for a, b in zip(locals_, again[bits])
            )

    def test_no_dense_run_no_randomness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("must not be called")

        monkeypatch.setattr(protocol.np.random, "default_rng", refuse)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_execute", refuse)
            corr = find_corrections(_spec(2, 3, style="lean"))
        assert len(corr) == 4
        lean = target_tableau(2, 2, "lean")
        lean.swap(2, 3)
        assert lc_equivalence(target_tableau(2, 2), lean) is not None
        rep = verify_appendix_a()
        assert rep.equivalent and abs(rep.overlap - 1) <= 1e-12

    @pytest.mark.parametrize("m,n,style,init_one", _CORRECTION_GRID)
    def test_branch_tableau_stabilises_the_target(self, m, n, style, init_one):
        # the photon generators read off the completion echelon, signs
        # included, fix the dense all-|1> branch
        tab = target_tableau(m, n, style, init_one)
        target = ideal_target(m, n, style, init_one).data
        assert tab.x.shape == (m * n, m * n)
        for x, z, r in zip(tab.x, tab.z, tab.r):
            assert np.max(np.abs(_signed_pauli(x, z, r) @ target - target)) <= 1e-12
        assert len(tab.echelon(range(2 * m * n))) == m * n  # independent

    def test_long_lattice_needs_no_dense_state(self):
        # the dense ideal 2x10 register alone is 2^22 * 16 B = 64 MiB
        spec = _spec(2, 10, style="lean")
        tracemalloc.start()
        try:
            corr = find_corrections(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert len(corr[(0, 0)]) == 20

    @pytest.mark.parametrize("init_one", [False, True])
    def test_unreachable_branches(self, init_one):
        # ry on wire 0 and one emission leave wire 1 in its initial state:
        # from |1> the branches with wire 1 at 0 have probability zero; from
        # |0> so does the all-|1> branch, which has nothing to correct to
        spec = _spec(2, 1, init_one=init_one)
        items = [ScheduleItem("gate", "ry", (0,)), ScheduleItem("emit")]
        tab = Tableau(2, ones=init_one).run(items)
        if not init_one:
            with pytest.raises(ValueError, match="zero probability"):
                completion_corrections(tab, 2)
            return
        corr = completion_corrections(tab, 2)[0]
        probs = np.sum(np.abs(_dense_branches(spec, items)) ** 2, axis=1)
        for (bits, q), p in zip(corr.items(), probs):
            assert (q is None) == (p < 1e-12), bits
        assert corr[(1, 1)][0].tolist() == [False] and corr[(1, 1)][1].tolist() == [False]

    @pytest.mark.parametrize("m,n,style,init_one", _CORRECTION_GRID[::3])
    def test_tableau_stabilises_the_dense_register(self, m, n, style, init_one):
        spec = _spec(m, n, style=style, init_one=init_one)
        items = [s for s in build_schedule(spec) if s.kind != "measure"]
        tab = Tableau(m, ones=init_one).run(items)
        psi = protocol._execute(spec, items)
        for reduced in (False, True):
            if reduced:
                # independent generators: a full set of pivots, each column
                # cleared below its pivot row
                pivots = tab.echelon(range(2 * len(tab.r)))
                bits = np.hstack([tab.x, tab.z])
                assert len(pivots) == len(tab.r)
                for k, c in enumerate(pivots):
                    assert bits[k, c] and not bits[k + 1:, c].any()
            for x, z, r in zip(tab.x, tab.z, tab.r):
                assert np.max(np.abs(_signed_pauli(x, z, r) @ psi - psi)) <= 1e-12

    def test_generator_product_keeps_the_sign(self):
        rows = np.array(list(np.ndindex(*(2,) * 5)), dtype=bool)
        dense = [_signed_pauli(b[:2], b[2:4], b[4]) for b in rows]
        for a, pa in zip(rows, dense):
            for b, pb in zip(rows, dense):
                if np.max(np.abs(pa @ pb - pb @ pa)) > 1e-12:
                    continue  # only commuting generators are ever multiplied
                tab = Tableau(2)
                both = np.stack([b, a])
                tab.x, tab.z, tab.r = both[:, :2], both[:, 2:4], both[:, 4]
                tab._multiply(0, 1)
                prod = _signed_pauli(tab.x[0], tab.z[0], tab.r[0])
                assert np.max(np.abs(prod - pa @ pb)) <= 1e-12

    @pytest.mark.parametrize("gate,wires,u", [
        ("ry", (0,), np.kron(protocol.RY_PROTO, np.eye(2))),
        ("ry", (1,), np.kron(np.eye(2), protocol.RY_PROTO)),
        ("cz", (0, 1), CZ), ("swap", (0, 1), protocol.SWAP),
    ])
    def test_gate_conjugates_every_pauli(self, gate, wires, u):
        # the tableau's update of a row must be U P U^dagger, sign included
        tab = Tableau(2)
        bits = np.array(list(np.ndindex(*(2,) * 5)), dtype=bool)
        tab.x, tab.z, tab.r = bits[:, :2].copy(), bits[:, 2:4].copy(), bits[:, 4].copy()
        before = [_signed_pauli(x, z, r) for x, z, r in zip(tab.x, tab.z, tab.r)]
        getattr(tab, gate)(*wires)
        for p, x, z, r in zip(before, tab.x, tab.z, tab.r):
            assert np.max(np.abs(u @ p @ u.conj().T - _signed_pauli(x, z, r))) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fidelity_does_not_depend_on_the_choice(self, packaged, monkeypatch, seed):
        # a correction times a photonic stabiliser S of the target is another
        # correction: F and SE stay, and the trajectories it corrects move by S
        spec = TestTrajectoryFactor._lean_2x2(packaged, "corrected", seed)
        s_locals = _target_stabiliser(spec)
        s = reduce(np.kron, s_locals)
        target = ideal_target(2, 2, style="lean").data
        assert abs(abs(np.vdot(target, s @ target)) - 1) <= 1e-12
        base = run(spec)
        base_v, base_w = dense_run(spec)[3:5]
        rho = _mixture(base_v, base_w)
        shipped = protocol.find_corrections
        for branches in ([(0, 1)], list(np.ndindex(2, 2))):
            def chosen(spec_, branches=branches):
                corr = shipped(spec_)
                for bits in branches:
                    corr[bits] = [v @ u for v, u in zip(s_locals, corr[bits])]
                return corr

            monkeypatch.setattr(protocol, "find_corrections", chosen)
            res = run(spec)
            assert abs(res.fidelity - base.fidelity) <= 1e-12
            assert abs(res.fidelity_se - base.fidelity_se) <= 1e-12
            v, w = dense_run(spec)[3:5]
            kept = np.max(np.abs(v - base_v), axis=1) <= 1e-12
            moved = np.max(np.abs(v - base_v @ s.T), axis=1) <= 1e-12
            assert np.all(kept ^ moved)
            rho_s = _mixture(v, w)
            if len(branches) == 4:
                assert moved.all()
                assert np.max(np.abs(rho_s - s @ rho @ s.conj().T)) <= 1e-12
            else:
                assert moved.any() and kept.any()
                part = base_v[moved]
                expect = rho + (s @ part.T @ part.conj() @ s.conj().T
                                - part.T @ part.conj()) / base_w.sum()
                assert np.max(np.abs(rho_s - expect)) <= 1e-12


class TestNoisyRuns:
    def test_packaged_gates_weak_noise(self, packaged):
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=3e-6, t2_hahn=300e-6, seed=0)
        spec = ProtocolSpec(m=2, n=1, gate_library=lib, params=params,
                            style="lean", noise=noise, trials=200, seed=1)
        res = run(spec)
        assert 0.99 < res.fidelity <= 1.0
        assert res.fidelity_se < 1e-3
        assert res.trials == 200

    def test_monotone_in_coherence_time(self, packaged):
        lib, params, _ = packaged
        fids = []
        for t2 in (2e-6, 8e-6, 300e-6):
            noise = ou_from_coherence(t2_star=0.01 * t2, t2_hahn=t2, seed=0)
            spec = ProtocolSpec(m=2, n=1, gate_library=lib, params=params,
                                style="lean", noise=noise, trials=200, seed=2)
            fids.append(run(spec).fidelity)
        assert fids[0] < fids[1] < fids[2]

    def test_monotone_in_columns(self, packaged):
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=0.08e-6, t2_hahn=8e-6, seed=0)
        fids = []
        for n in (1, 2):
            spec = ProtocolSpec(m=2, n=n, gate_library=lib, params=params,
                                style="lean", noise=noise, trials=150, seed=3)
            fids.append(run(spec).fidelity)
        assert fids[1] < fids[0]

    def test_seed_reproducibility(self, packaged):
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=0.08e-6, t2_hahn=8e-6, seed=0)
        spec = ProtocolSpec(m=2, n=1, gate_library=lib, params=params,
                            style="lean", noise=noise, trials=120, seed=11)
        a = run(spec)
        b = run(spec)
        assert a.fidelity == b.fidelity

    def test_postselect_standard_error(self, packaged):
        # the ratio-estimator SE of F^2 = sum o_t / sum w_t, carried to F,
        # must describe the seed-to-seed spread of the fidelity
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=0.08e-6, t2_hahn=8e-6, seed=0)
        fids, ses = [], []
        for seed in range(20):
            spec = ProtocolSpec(m=2, n=1, gate_library=lib, params=params,
                                style="lean", noise=noise, trials=100,
                                seed=seed, completion="postselect")
            res = run(spec)
            fids.append(res.fidelity)
            ses.append(res.fidelity_se)
        assert all(np.isfinite(se) and se > 0 for se in ses)
        spread = np.std(fids, ddof=1)
        assert spread / 2 <= np.median(ses) <= 2 * spread

    def test_noise_without_params_rejected(self):
        noise = OUNoise(b=1e5, tau_c=1e-3)
        with pytest.raises(ValueError):
            run(_spec(2, 1, noise=noise))

    def test_one_unit_compiler_per_run(self, packaged, monkeypatch):
        # run, the preparation segment and the building block share one
        builds = []
        init = protocol.UnitCompiler.__init__

        def counted(self, p):
            builds.append(p)
            init(self, p)

        monkeypatch.setattr(protocol.UnitCompiler, "__init__", counted)
        lib, params, _ = packaged
        spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params, style="lean",
                            noise=ou_from_coherence(3e-6, 300e-6, seed=1), trials=20, seed=1)
        run(spec, components=True)
        assert len(builds) == 1
        component_fidelities(spec)
        assert len(builds) == 2


class TestTrajectoryFactor:
    """A run returns its fidelity, SE and weights w (T,) and keeps no
    trajectory data. The completed vectors V of the same trajectories come
    from the dense references: under postselection the all-|1> branch
    (T, 2^(MN)) of `dense_run`; corrected, every corrected branch
    (T, 2^M, 2^(MN)) of `dense_branch_sum`, unnormalised, with weight 1 per
    trajectory. Their mixture rho = V^T V* / sum w is the photonic state of
    a noisy run."""

    @staticmethod
    def _lean_2x2(packaged, completion, seed):
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=0.08e-6, t2_hahn=8e-6, seed=seed)
        return ProtocolSpec(m=2, n=2, gate_library=lib, params=params,
                            style="lean", noise=noise, trials=100, seed=seed,
                            completion=completion)

    @pytest.mark.parametrize("completion", ["corrected", "postselect"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rho_is_the_mixture_of_the_factor(self, packaged, completion, seed):
        # F is the square-root fidelity sqrt(<target|rho|target>) of the
        # mixture of the run's trajectories
        spec = self._lean_2x2(packaged, completion, seed)
        res = run(spec)
        if completion == "postselect":
            v, w = dense_run(spec)[3:5]
        else:
            v, w = dense_branch_sum(spec)[2].reshape(400, 16), np.ones(100)
        assert v.shape[1] == 16 and res.weights.shape == (100,)
        assert np.max(np.abs(res.weights - w)) <= 1e-12
        rho = _mixture(v, w)
        assert abs(np.trace(rho) - 1) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        target = ideal_target(2, 2, style="lean").data
        assert abs(np.sqrt(np.vdot(target, rho @ target).real) - res.fidelity) <= 1e-12

    def test_result_holds_no_trajectory_data(self, packaged):
        # 1000 trials of lean 2x2 sample (1000, 222) bath phases, 1.8 MB;
        # what stays alive after `run` returns is the result: its weights
        # (8 kB) and scalars
        spec = replace(self._lean_2x2(packaged, "corrected", 1), trials=1000)
        run(spec)  # first-use allocations of numpy and the package
        tracemalloc.start()
        try:
            res = run(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024
        assert res.weights.shape == (1000,) and res.trials == 1000

    @staticmethod
    def _memory(pages):
        return lambda name: {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": 1}[name]

    @staticmethod
    def _contract_peaks(monkeypatch):
        """Wrap `_contract` to record, per call, (the bytes it asked
        `_refuse_past_memory` for, its traced peak above what was held at
        entry, its boundary's bytes); tracemalloc must be running."""
        needs, peaks, contract = [], [], protocol._contract

        def traced(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = contract(*args)
            peaks.append((needs[-1], tracemalloc.get_traced_memory()[1] - held, out[0].nbytes))
            return out

        monkeypatch.setattr(protocol, "_refuse_past_memory", lambda need, what: needs.append(need))
        monkeypatch.setattr(protocol, "_contract", traced)
        return peaks

    def test_oversized_batch_refused_before_allocation(self, packaged, monkeypatch):
        # the boundary of 5 corrected lean 2x2 trajectories is 5 * 4 * 1 * 4
        # complex entries, one slot and no spin density, 1280 B: refused one
        # byte below six of them and the room for the noisy unitaries
        spec = replace(self._lean_2x2(packaged, "corrected", 1), trials=5)
        need = 6 * 1280 + 8 * 256 * 2048

        def no_allocation(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(protocol.os, "sysconf", self._memory(need - 1))
        monkeypatch.setattr(protocol, "_gate_unitaries", no_allocation)
        msg = f"boundary tensor needs {need} B, more than the {need - 1} B"
        with pytest.raises(ValueError, match=msg):
            run(spec)
        # ideal_target holds one row of 2^6 amplitudes of 16 B; it is
        # refused below four copies
        monkeypatch.setattr(protocol.os, "sysconf", self._memory(4 * 1024 - 1))
        monkeypatch.setattr(protocol, "_execute", no_allocation)
        with pytest.raises(ValueError, match="ideal target needs 4096 B, more than the 4095 B"):
            ideal_target(2, 2, style="lean")
        # M = 8 pedagogical at the CLI's 2000 trials: its boundary alone is
        # 2000 * 256 * 256 * 16 B = 2.1 GB, and six of them are refused on a
        # 7-GiB box
        big = replace(spec, m=8, n=1, style="pedagogical", trials=2000)
        monkeypatch.setattr(protocol.os, "sysconf", self._memory(7 * 2 ** 30))
        with pytest.raises(ValueError, match="boundary tensor needs"):
            run(big)
        monkeypatch.undo()
        monkeypatch.setattr(protocol.os, "sysconf", self._memory(need))
        assert 0.99 < run(spec).fidelity <= 1

    def test_batch_below_memory_refused_when_its_peak_is_not(self, packaged, monkeypatch):
        # the boundary of 2048 noisy corrected lean 2x2 trajectories is
        # 0.5 MB, and the contraction peaks near six times that: memory of
        # 1.5 boundaries and the room for the noisy unitaries is refused
        spec = replace(self._lean_2x2(packaged, "corrected", 1), trials=2048)
        boundary = 16 * 2048 * 4 * 1 * 4
        monkeypatch.setattr(protocol.os, "sysconf",
                            self._memory(3 * boundary // 2 + 8 * 256 * 2048))
        with pytest.raises(ValueError, match="boundary tensor needs .* more than the"):
            run(spec)

    @pytest.mark.parametrize("m,n,style,trials,noisy", [
        (2, 6, "lean", 20, True), (2, 6, "lean", 1, False), (2, 2, "lean", 200, True),
        (3, 3, "pedagogical", 20, True), (3, 2, "pedagogical", 1, False),
    ])
    def test_refusal_bound_covers_traced_peak(self, packaged, monkeypatch, m, n, style,
                                              trials, noisy):
        # every contraction of a run with its component fidelities: the run
        # itself and the two segments
        lib, params, _ = packaged
        spec = ProtocolSpec(m=m, n=n, gate_library=lib, params=params, style=style,
                            noise=ou_from_coherence(3e-6, 300e-6, seed=1) if noisy else None,
                            trials=trials, seed=1)
        peaks = self._contract_peaks(monkeypatch)
        tracemalloc.start()
        try:
            run(spec, components=True)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        for need, peak, boundary in peaks:
            assert boundary < peak <= need

    @pytest.mark.parametrize("trials", [2048, 5000])
    def test_refusal_bound_covers_traced_peak_on_many_trials(self, packaged, monkeypatch,
                                                             trials):
        # from 2048 trials on, a DD sequence's noisy unitaries come one
        # instance per call and grow with the boundary: six boundaries and
        # 64 KiB for the schedule's small arrays cover the peak without the
        # room kept for the unitaries on fewer trials
        spec = replace(self._lean_2x2(packaged, "corrected", 1), trials=trials)
        peaks = self._contract_peaks(monkeypatch)
        tracemalloc.start()
        try:
            run(spec, components=True)
        finally:
            tracemalloc.stop()
        for need, peak, boundary in peaks:
            assert boundary < peak <= need - 8 * 256 * 2048 + 64 * 1024

    @pytest.mark.parametrize("m,n,style", [
        (2, 6, "lean"), (2, 8, "lean"), (3, 3, "pedagogical"), (4, 2, "pedagogical"),
    ])
    def test_ideal_target_refusal_covers_traced_peak(self, monkeypatch, m, n, style):
        # final batches of 64 KiB and up, where the schedule's own objects
        # are a few percent of them
        needs = []
        monkeypatch.setattr(protocol, "_refuse_past_memory", lambda need, what: needs.append(need))
        ideal_target(m, n, style)  # first-use allocations
        tracemalloc.start()
        try:
            ideal_target(m, n, style)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 16 * 2 ** (m + m * n) < peak <= needs[-1]

    def test_long_lattice_run_holds_no_dense_rho(self, packaged):
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=3e-6, t2_hahn=300e-6, seed=1)
        spec = ProtocolSpec(m=2, n=6, gate_library=lib, params=params,
                            style="lean", noise=noise, trials=20, seed=1)
        tracemalloc.start()
        try:
            res = run(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a quarter of the 12-photon rho, 16 * 4^12 B
        assert peak < 16 * 4 ** 12 / 4
        assert 0.99 < res.fidelity <= 1 and res.fidelity_se > 0

    @staticmethod
    def _long_lean(packaged, n):
        lib, params, _ = packaged
        noise = ou_from_coherence(t2_star=3e-6, t2_hahn=300e-6, seed=1)
        return ProtocolSpec(m=2, n=n, gate_library=lib, params=params,
                            style="lean", noise=noise, trials=20, seed=1)

    def test_run_holds_no_dense_batch(self, packaged):
        # the dense 2x8 batch of 20 trajectories is 20 * 2^18 * 16 B
        spec = self._long_lean(packaged, 8)
        tracemalloc.start()
        try:
            res = run(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 18 * 16 / 10
        assert 0.99 < res.fidelity <= 1 and res.fidelity_se > 0

    def test_past_the_dense_reach(self, packaged):
        # a 2x20 batch of 20 trajectories would take 20 * 2^42 * 16 B
        res = run(self._long_lean(packaged, 20))
        assert 0.9 < res.fidelity <= 1 and np.isfinite(res.fidelity_se) and res.fidelity_se > 0


class TestWallClock:
    def test_lean_two_by_two_duration(self, packaged):
        # 2x2 lean run: 3 swap + 2 cz sequences of a few microseconds each
        lib, params, _ = packaged
        spec = ProtocolSpec(m=2, n=2, gate_library=lib, params=params,
                            style="lean")
        wall = wall_clock_model(spec)
        assert 5e-6 < wall < 15e-6

    @pytest.mark.xfail(
        strict=True,
        reason="a 2x5 lattice schedules 6 swap + 5 cz sequences, totalling "
        "tens of microseconds; a microsecond-scale generation time per "
        "lattice is not reachable with these gate durations",
    )
    def test_two_by_five_microsecond_generation(self, packaged):
        lib, params, _ = packaged
        spec = ProtocolSpec(m=2, n=5, gate_library=lib, params=params,
                            style="lean")
        assert wall_clock_model(spec) <= 2 * 3e-6


def _random_unitary(rng) -> np.ndarray:
    q, r = np.linalg.qr(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _max_local_overlap(psi1, psi2, rng, n_starts=8, iters=300, tol=1e-13):
    """Dense reference for local equivalence: maximize |<psi2| (x)_i U_i |psi1>|
    over single-qubit unitaries by alternating per-qubit SVD updates, from the
    identity and random starts; returns (best overlap, locals)."""
    n = int(np.log2(len(psi1)))
    t2c = psi2.conj().reshape((2,) * n)
    best = (0.0, [I2] * n)
    for s in range(n_starts):
        if s == 0:
            locals_ = [np.eye(2, dtype=complex) for _ in range(n)]
        else:
            locals_ = [_random_unitary(rng) for _ in range(n)]
        prev = 0.0
        for _ in range(iters):
            for i in range(n):
                phi = psi1.reshape((2,) * n)
                for j, u in enumerate(locals_):
                    if j != i:
                        phi = np.moveaxis(
                            np.tensordot(u, phi, axes=([1], [j])), 0, j
                        )
                axes = [j for j in range(n) if j != i]
                env = np.tensordot(t2c, phi, axes=(axes, axes))
                w, _, vh = np.linalg.svd(env.T)
                locals_[i] = (w @ vh).conj().T.copy()
            # overlap after this sweep
            phi = psi1.reshape((2,) * n)
            for j, u in enumerate(locals_):
                phi = np.moveaxis(np.tensordot(u, phi, axes=([1], [j])), 0, j)
            ov = abs(np.vdot(psi2, phi.ravel()))
            if ov - prev < tol:
                break
            prev = ov
        if ov > best[0]:
            best = (ov, [u.copy() for u in locals_])
        if best[0] > 1 - 1e-12:
            break
    return best


def _path(n):
    return np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)


def _ghz_tableau(n):
    """X...X and Z_{i-1} Z_i for i = 1..n-1."""
    tab = Tableau(n)
    tab.x[:], tab.z[:] = False, False
    tab.x[0] = True
    for i in range(1, n):
        tab.z[i, [i - 1, i]] = True
    return tab


# the six invertible 2x2 matrices over GF(2): the local symplectic maps
_INVERTIBLE = np.array(
    [q for q in itertools.product((0, 1), repeat=4) if q[0] & q[3] ^ q[1] & q[2]],
    dtype=bool,
).reshape(6, 2, 2)


def _mapped(tab, qs):
    """(x, z) of every generator of `tab` under per-qubit maps qs (..., n, 2, 2)."""
    a, b, c, d = (qs[..., i, j][..., None, :] for i in (0, 1) for j in (0, 1))
    return (a & tab.x) ^ (b & tab.z), (c & tab.x) ^ (d & tab.z)


def _maps_onto(a, b, qs):
    """Whether each set of maps in qs (..., n, 2, 2) takes the stabiliser space
    of `a` into (so onto) that of `b`: b's generators all commute with every
    mapped generator of `a`."""
    x, z = _mapped(a, qs)
    sym = np.einsum("ji,...ki->...jk", b.z.astype(int), x.astype(int))
    sym += np.einsum("ji,...ki->...jk", b.x.astype(int), z.astype(int))
    return (sym % 2 == 0).all(axis=(-1, -2))


def _exhaustive_lc(a, b):
    """Reference: try all 6^n local symplectic maps."""
    n = len(a.r)
    qs = _INVERTIBLE[np.array(list(np.ndindex(*(6,) * n)))]
    return bool(_maps_onto(a, b, qs).any())


def _random_local_image(tab, rng):
    """`tab` under random local symplectic maps, with its generators mixed by
    a random invertible GF(2) matrix (the same state, other generators)."""
    n = len(tab.r)
    out = Tableau(n)
    x, z = _mapped(tab, _INVERTIBLE[rng.integers(0, 6, n)])
    for i, j in rng.integers(0, n, (n * n, 2)):
        if i != j:  # row additions keep the generators independent
            x[i] ^= x[j]
            z[i] ^= z[j]
    out.x, out.z = x, z
    return out


def _random_graph_tableau(n, rng):
    """A random graph state, sparse enough to be disconnected at times."""
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.8), 1)
    return Tableau.graph(upper | upper.T)


def _check_lc(a, psi_a, b, psi_b, equivalent):
    """lc_equivalence(a, b) and the dense search both give `equivalent`; the
    tableaux are those of the dense states, and any maps returned turn psi_a,
    under the one-qubit Cliffords they name, into an eigenstate of every
    generator of b."""
    for tab, psi in ((a, psi_a), (b, psi_b)):
        for x, z, r in zip(tab.x, tab.z, tab.r):
            assert np.max(np.abs(_signed_pauli(x, z, r) @ psi - psi)) <= 1e-12
    maps = lc_equivalence(a, b)
    assert (maps is not None) == equivalent
    overlap, _ = _max_local_overlap(psi_a, psi_b, np.random.default_rng(0))
    assert (overlap > 1 - 1e-6) == equivalent
    if maps is None:
        return
    n = len(maps)
    phi = psi_a[None]
    for i, q in enumerate(maps):
        phi = protocol._apply_matrix_vec(
            phi, protocol._LOCAL_CLIFFORDS[tuple(q.ravel())], [i], n)
    for x, z, r in zip(b.x, b.z, b.r):
        assert abs(abs(np.vdot(phi[0], _signed_pauli(x, z, r) @ phi[0])) - 1) <= 1e-12


class TestLUEquivalence:
    """The exact local-Clifford test, against the dense local-unitary search
    on small states and an exhaustive search over local symplectic maps."""

    def test_identical(self):
        g = Tableau.graph(_path(3))
        _check_lc(g, linear_graph_state(3).data, g, linear_graph_state(3).data, True)

    def test_local_paulis(self):
        g = linear_graph_state(3)
        other = apply_gate(apply_gate(g, X, [0]), Z, [2])
        # X_0 flips the generator with Z_0, Z_2 the one with X_2
        flipped = Tableau.graph(_path(3))
        flipped.r[[1, 2]] = True
        _check_lc(Tableau.graph(_path(3)), g.data, flipped, other.data, True)

    def test_ghz_vs_linear_cluster_three_qubits(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = 1 / np.sqrt(2)
        _check_lc(_ghz_tableau(3), ghz, Tableau.graph(_path(3)),
                  linear_graph_state(3).data, True)

    def test_product_vs_linear_cluster(self):
        prod = np.zeros(8, dtype=complex)
        prod[0] = 1.0
        _check_lc(Tableau(3), prod, Tableau.graph(_path(3)),
                  linear_graph_state(3).data, False)

    def test_local_clifford_table(self):
        # U X U^dagger and U Z U^dagger are, up to sign, the Paulis whose
        # (x, z) are the columns of Q
        assert sorted(protocol._LOCAL_CLIFFORDS) == sorted(
            tuple(q.ravel().astype(int)) for q in _INVERTIBLE)
        for key, u in protocol._LOCAL_CLIFFORDS.items():
            q = np.array(key).reshape(2, 2)
            for col, p in enumerate((X, Z)):
                image = _signed_pauli(q[0, col:col + 1], q[1, col:col + 1], 0)
                assert abs(abs(np.trace(image @ u @ p @ u.conj().T)) - 2) <= 1e-12

    def test_qubit_counts_must_match(self):
        with pytest.raises(ValueError, match="qubit counts"):
            lc_equivalence(Tableau(3), Tableau(4))

    def test_rail_order_two_by_ten(self):
        # 20 photons: far past the dense search. The lean schedule emits
        # every second column's rails in the opposite order
        ped, lean = target_tableau(2, 10), target_tableau(2, 10, "lean")
        assert lc_equivalence(ped, lean) is None
        for col in range(1, 10, 2):
            lean.swap(2 * col, 2 * col + 1)
        maps = lc_equivalence(ped, lean)
        assert maps is not None and _maps_onto(ped, lean, maps)

    def test_agrees_with_exhaustive_search(self):
        # seeded random pairs on 2-4 qubits, disconnected graphs included;
        # half the pairs are local images of each other by construction
        rng = np.random.default_rng(2004)
        verdicts, disconnected = [], 0
        for trial in range(450):
            n = 2 + trial % 3
            graph = _random_graph_tableau(n, rng)
            disconnected += connected_components(graph.z)[0] > 1
            a = _random_local_image(graph, rng)
            b = _random_local_image(
                a if trial % 2 else _random_graph_tableau(n, rng), rng
            )
            maps = lc_equivalence(a, b)
            verdicts.append(maps is not None)
            assert verdicts[-1] == _exhaustive_lc(a, b), trial
            assert maps is None or _maps_onto(a, b, maps)
        assert 0 < sum(verdicts) < len(verdicts) and disconnected > 0

    def test_recognises_random_local_images(self):
        rng = np.random.default_rng(1991)
        for n in range(6, 40, 3):
            a = _random_graph_tableau(n, rng)
            b = _random_local_image(a, rng)
            maps = lc_equivalence(a, b)
            assert maps is not None and _maps_onto(a, b, maps), n

    def test_two_blocks(self):
        # two disjoint 3-qubit paths: the search runs per block and XORs the
        # blocks' maps together, so each block must match on its own
        two = np.zeros((6, 6), dtype=bool)
        two[:3, :3] = two[3:, 3:] = _path(3)
        a = Tableau.graph(two)
        b = _random_local_image(a, np.random.default_rng(5))
        maps = lc_equivalence(a, b)
        assert maps is not None and _maps_onto(a, b, maps)
        # the second path cut to isolated qubits: the first block still
        # matches, the second cannot
        half = two.copy()
        half[3:, 3:] = False
        assert lc_equivalence(a, Tableau.graph(half)) is None
        assert lc_equivalence(Tableau.graph(half), a) is None

    def test_forty_qubit_product_and_ghz(self):
        for tab in (Tableau(40), _ghz_tableau(40)):
            maps = lc_equivalence(tab, tab)
            assert maps is not None and _maps_onto(tab, tab, maps)
        assert lc_equivalence(Tableau(40), _ghz_tableau(40)) is None


class TestAppendix:
    def test_state_tracking(self):
        rep = verify_appendix_a()
        assert rep.equivalent
        # the overlap under the constructed local Cliffords and Pauli
        assert abs(rep.overlap - 1) <= 1e-12
        # completion outcomes are uniform: eight branches of 1/8 each
        assert abs(rep.all_ones_probability - 0.125) < 1e-9
        labels = [label for label, _ in rep.steps]
        assert labels[0] == "init" and labels[-1] == "completion"
        assert labels.count("E") == 3

    def test_amplitude_table_photon_labels(self):
        rep = verify_appendix_a()
        table = rep.amplitude_table()
        assert "== completion ==" in table
        assert ("R" in table) and ("L" in table)

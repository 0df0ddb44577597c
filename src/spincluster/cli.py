"""Command-line driver: synthesis, protocol runs, figure sweeps, invariant
verification, and the generation-rate model. All outputs are CSV with a
reproducibility header (version, config hash, and the seed of a command
that takes one)."""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .budget import EfficiencyBudget, FidelityBudget, extrapolated_fidelity, generation_rate
from .clifford import lc_equivalence
from .emission import EmissionParams, emission_fidelity
from .hamiltonian import SecularApproximationWarning, resonance_spacing
from .noise import coherence_decays, ou_from_coherence
from .presets import load_preset, spin_params
from .protocol import (
    ProtocolSpec, ideal_library, packaged_gate_library, run,
    target_tableau, verify_appendix_a,
)
from .synthesis import serialize_sequence, synthesize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _config_hash(args: argparse.Namespace) -> str:
    payload = json.dumps(
        {k: v for k, v in sorted(vars(args).items())
         if k not in ("func", "output")},
        default=str, sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _header(args, out):
    out.write(f"# spincluster {__version__}\n")
    out.write(f"# config_hash={_config_hash(args)}\n")
    if "seed" in args:
        out.write(f"# seed={args.seed}\n")


def _finite_positive(flag, *values):
    """Refuse a value of `flag` that is not finite and > 0."""
    for v in values:
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{flag} must be finite and > 0, got {v}")


def cmd_synthesize(args, out) -> int:
    if args.max_k < 2:
        raise ValueError(f"--max-k must be >= 2 to leave even unit counts to search, "
                         f"got {args.max_k}")
    p = spin_params(args.preset)
    report = synthesize(
        args.target, p, threshold=args.threshold,
        ks=range(2, args.max_k + 1, 2),
        seed=args.seed, restarts=args.restarts,
        duration_limit=args.duration_limit,
    )
    out.write(serialize_sequence(report, p))
    print(
        f"target={args.target} k={report.sequence.k} "
        f"duration={report.sequence.total_duration * 1e6:.4f}us "
        f"fidelity={report.unitary_fidelity:.7f} "
        f"met_threshold={report.met_threshold}",
        file=sys.stderr if args.output == "-" else sys.stdout,  # keep a gate file on stdout clean
    )
    return EXIT_OK if report.met_threshold else EXIT_CHECK_FAILED


def cmd_run(args, out) -> int:
    d = load_preset(args.preset)
    if args.ideal_gates:
        for flag, value in (("--t2", args.t2), ("--t2-star", args.t2_star)):
            if value is not None:
                raise ValueError(f"{flag} sets the bath, and --ideal-gates runs without one")
        lib, params, noise = ideal_library(), None, None
    else:
        for flag, value in (("--t2", args.t2), ("--t2-star", args.t2_star)):
            if value is not None:
                _finite_positive(flag, value)
        lib, params, _ = packaged_gate_library()
        t2 = args.t2 if args.t2 is not None else d.get("t2_s", 300e-6)
        ratio = d.get("t2_star_ratio", 0.01)
        t2_star = args.t2_star if args.t2_star is not None else ratio * t2
        noise = ou_from_coherence(t2_star, t2, seed=args.seed)
    spec = ProtocolSpec(
        m=args.m, n=args.n, gate_library=lib, params=params, noise=noise,
        style=args.style, completion=args.completion, trials=args.trials,
        seed=args.seed,
    )
    result = run(spec, components=args.components)
    _header(args, out)
    out.write("m,n,style,fidelity,fidelity_se,prep_fidelity,block_fidelity,"
              "wall_clock_s,postselect_probability,trials\n")
    out.write(
        f"{args.m},{args.n},{args.style},{result.fidelity:.8f},"
        f"{result.fidelity_se:.2e},{result.prep_fidelity},"
        f"{result.block_fidelity},{result.wall_clock_model:.6e},"
        f"{result.postselect_probability:.6f},{result.trials}\n"
    )
    return EXIT_OK


def cmd_rate(args, out) -> int:
    _finite_positive("--duration", args.duration)
    e = EfficiencyBudget.from_combined(args.eta_combined)
    r = generation_rate(e, args.photons, args.duration)
    _header(args, out)
    out.write("eta_combined,photons,duration_s,rate_hz\n")
    out.write(f"{args.eta_combined},{args.photons},{args.duration:.6e},{r:.6e}\n")
    return EXIT_OK


def _figure_fig3c(args, out) -> int:
    for flag in ("tau_min", "tau_max", "omega_min", "omega_max"):
        _finite_positive(f"--{flag.replace('_', '-')}", getattr(args, flag))
    if args.grid < 1:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    _header(args, out)
    out.write("tau_s,delta_omega_rad_s,fidelity\n")
    taus = np.geomspace(args.tau_min, args.tau_max, args.grid)
    omegas = np.geomspace(args.omega_min, args.omega_max, args.grid)
    for tau in taus:
        for w in omegas:
            f = emission_fidelity(EmissionParams(tau=tau, delta_omega=w))
            out.write(f"{tau:.6e},{w:.6e},{f:.8f}\n")
    return EXIT_OK


def _noisy_2x2_rows(t2s, args, components):
    """(T2, noisy lean 2x2 run) for each T2 of `t2s`, each run from its own
    child of --seed, so that the rows draw independent bath phases."""
    lib, params, _ = packaged_gate_library()
    for t2, row in zip(t2s, np.random.SeedSequence(args.seed).spawn(len(t2s))):
        seed = int(row.generate_state(1)[0])
        spec = ProtocolSpec(
            m=2, n=2, gate_library=lib, params=params,
            noise=ou_from_coherence(0.01 * t2, t2, seed=seed),
            style="lean", trials=args.trials, seed=seed,
        )
        yield t2, run(spec, components=components)


def _figure_fig3b(args, out) -> int:
    if args.max_columns < 1:
        raise ValueError(f"--max-columns must be >= 1, got {args.max_columns}")
    _header(args, out)
    out.write("t2_s,n_columns,photons,fidelity,fidelity_spin_photon_94\n")
    for t2, result in _noisy_2x2_rows((2e-6, 8e-6, 300e-6), args, components=True):
        for n in range(1, args.max_columns + 1):
            fb = FidelityBudget(
                result.prep_fidelity, result.block_fidelity, 1.0, 2, n
            )
            fb94 = FidelityBudget(
                result.prep_fidelity, result.block_fidelity, 0.94, 2, n
            )
            out.write(
                f"{t2:.2e},{n},{2 * n},{extrapolated_fidelity(fb):.6f},"
                f"{extrapolated_fidelity(fb94):.6f}\n"
            )
    return EXIT_OK


def _figure_fig3a(args, out) -> int:
    _finite_positive("--t2-list", *args.t2_list)
    _header(args, out)
    out.write("a_par_hz,t2_s,fidelity,fidelity_se\n")
    _, params, _ = packaged_gate_library()
    for t2, result in _noisy_2x2_rows(args.t2_list, args, components=False):
        out.write(
            f"{params.a_par:.3e},{t2:.3e},{result.fidelity:.6f},"
            f"{result.fidelity_se:.2e}\n"
        )
    return EXIT_OK


def _figure_rates(args, out) -> int:
    _header(args, out)
    out.write("photons,duration_s,rate_hz\n")
    e = EfficiencyBudget.from_combined(0.85)
    for photons, duration in ((10, 3e-6), (100, 30e-6)):
        out.write(
            f"{photons},{duration:.2e},"
            f"{generation_rate(e, photons, duration):.6e}\n"
        )
    return EXIT_OK


def cmd_verify(args, out) -> int:
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            ok, detail = False, f"exception: {exc}"
        checks.append((name, ok, detail))

    rep = verify_appendix_a()
    check(
        "appendix_state_tracking",
        lambda: (
            rep.equivalent and rep.all_ones_probability > 0,
            f"overlap={rep.overlap:.9f} p(all-1)={rep.all_ones_probability:.4f}",
        ),
    )

    def noiseless_grid():
        for m in (2, 3):
            for n in (1, 2):
                spec = ProtocolSpec(m=m, n=n, gate_library=ideal_library())
                r = run(spec)
                if abs(r.fidelity - 1.0) > 1e-9:
                    return False, f"M={m} N={n} F={r.fidelity}"
        return True, "F=1 for (M,N) in {2,3}x{1,2}"

    check("noiseless_self_consistency", noiseless_grid)

    def resonance_ratios():
        p = spin_params("siv29")
        c1 = resonance_spacing(p, 1, "conditional")
        c2 = resonance_spacing(p, 2, "conditional")
        u1 = resonance_spacing(p, 1, "unconditional")
        ok = np.isclose(c2 / c1, 3.0) and np.isclose(u1 / c1, 2.0)
        return ok, f"c2/c1={c2 / c1:.6f} u1/c1={u1 / c1:.6f}"

    check("resonance_spacing_ratios", resonance_ratios)

    def seed_reproducibility():
        # under postselection each trajectory's weight is its all-|1>
        # probability, set by the bath phases the seed draws; a summed
        # (corrected) F barely depends on them at this T2
        lib, params, _ = packaged_gate_library()
        spec = ProtocolSpec(
            m=2, n=1, gate_library=lib, params=params, style="lean", trials=150,
            completion="postselect",
            noise=ou_from_coherence(3e-6, 300e-6, seed=args.seed), seed=args.seed,
        )
        a, b = run(spec), run(spec)
        other = run(replace(spec, seed=args.seed + 1))
        same = (a.fidelity == b.fidelity and a.fidelity_se == b.fidelity_se
                and np.array_equal(a.weights, b.weights))
        moved = float(np.max(np.abs(other.weights - a.weights)))
        ok = same and moved > 0
        return bool(ok), (
            "two noisy postselected 2x1 runs, one seed: identical F, SE and weights; "
            f"seed + 1 moves a trajectory weight by up to {moved:.2e}"
        )

    check("seed_reproducibility", seed_reproducibility)

    def ou_calibration():
        # the exact decays at the requested times, not at the bath's own
        # t2_star and t2_hahn, so that the inverse is checked too; each
        # reaches exp(-1/2) there up to the motional-narrowing offset
        t2_star, t2 = 1e-6, 10e-6
        fid, echo = coherence_decays(ou_from_coherence(t2_star, t2), [t2_star, t2])
        with np.errstate(divide="ignore"):  # F = 0 fails as -ln F = inf
            rates = -np.log([fid[0], echo[1]])
        ok = bool(np.all(np.abs(2 * rates - 1) <= 0.05))
        return ok, (f"exact decays at T2*=1us, T2=10us: "
                    f"-ln F_fid(T2*)={rates[0]:.6f} -ln F_echo(T2)={rates[1]:.6f} "
                    f"(1/2 within 5%)")

    check("ou_coherence_calibration", ou_calibration)

    def monotone_in_noise():
        lib, params, _ = packaged_gate_library()
        fids = []
        for t2 in (300e-6, 2e-6):
            spec = ProtocolSpec(
                m=2, n=1, gate_library=lib, params=params,
                noise=ou_from_coherence(0.01 * t2, t2, seed=args.seed),
                style="lean", trials=150, seed=args.seed,
            )
            fids.append(run(spec).fidelity)
        ok = fids[0] >= fids[1] and fids[0] > 0.99
        return ok, f"F(T2=300us)={fids[0]:.5f} F(T2=2us)={fids[1]:.5f}"

    check("protocol_noise_monotonicity", monotone_in_noise)

    def emission_limits():
        f0 = emission_fidelity(EmissionParams(tau=1e-9, delta_omega=0.0))
        finf = emission_fidelity(EmissionParams(tau=1e-9, delta_omega=1e18))
        ok = abs(f0 - 1) < 1e-12 and abs(finf - np.sqrt(0.5)) < 1e-6
        return ok, f"F(0)={f0:.6f} F(inf)={finf:.6f}"

    check("emission_fidelity_limits", emission_limits)

    def rail_order():
        # lean emits the second column's rails in the opposite order
        ped, lean = target_tableau(2, 2), target_tableau(2, 2, "lean")
        emitted = lc_equivalence(ped, lean) is not None
        lean.swap(2, 3)
        swapped = lc_equivalence(ped, lean) is not None
        return not emitted and swapped, (
            f"lean vs pedagogical 2x2 LC-equivalent: as emitted {emitted}, "
            f"photons 2 and 3 swapped {swapped}")

    check("rail_order_equivalence", rail_order)

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed", file=out)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spincluster",
        description="Photonic cluster-state generation simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synthesize", help="compile a two-qubit gate")
    s.add_argument("--target", required=True)
    s.add_argument("--preset", default="siv29")
    s.add_argument("--threshold", type=float, default=0.999)
    s.add_argument("--max-k", type=int, default=20)
    s.add_argument("--restarts", type=int, default=40)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--duration-limit", type=float, default=None)
    s.add_argument("--output", default="-")
    s.set_defaults(func=cmd_synthesize)

    r = sub.add_parser("run", help="run the cluster-state protocol")
    r.add_argument("--m", type=int, default=2)
    r.add_argument("--n", type=int, default=2)
    r.add_argument("--preset", default="siv29")
    r.add_argument("--style", default="lean", choices=["lean", "pedagogical"])
    r.add_argument("--completion", default="corrected",
                   choices=["corrected", "postselect"])
    r.add_argument("--ideal-gates", action="store_true")
    r.add_argument("--t2", type=float, default=None)
    r.add_argument("--t2-star", type=float, default=None)
    r.add_argument("--trials", type=int, default=2000)
    r.add_argument("--components", action="store_true")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--output", default="-")
    r.set_defaults(func=cmd_run)

    f = sub.add_parser("figure", help="emit a figure-reproduction CSV")
    figures = f.add_subparsers(dest="name", required=True)
    drawn = argparse.ArgumentParser(add_help=False)  # the figures that run trajectories
    drawn.add_argument("--trials", type=int, default=500)
    drawn.add_argument("--seed", type=int, default=0)
    fa = figures.add_parser("fig3a", parents=[drawn], help="fidelity against T2")
    fa.add_argument("--t2-list", type=float, nargs="+", default=[2e-6, 8e-6, 300e-6])
    fb = figures.add_parser("fig3b", parents=[drawn], help="extrapolation to long clusters")
    fb.add_argument("--max-columns", type=int, default=50)
    fc = figures.add_parser("fig3c", help="emission-fidelity surface")
    fc.add_argument("--grid", type=int, default=20)
    fc.add_argument("--tau-min", type=float, default=0.1e-9)
    fc.add_argument("--tau-max", type=float, default=30e-9)
    fc.add_argument("--omega-min", type=float, default=1e7)
    fc.add_argument("--omega-max", type=float, default=1e11)
    fr = figures.add_parser("rates", help="generation rates at 10 and 100 photons")
    for g, func in ((fa, _figure_fig3a), (fb, _figure_fig3b),
                    (fc, _figure_fig3c), (fr, _figure_rates)):
        g.add_argument("--output", default="-")
        g.set_defaults(func=func)

    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("rate", help="generation-rate model")
    t.add_argument("--eta-combined", type=float, default=0.85)
    t.add_argument("--photons", type=int, default=10)
    t.add_argument("--duration", type=float, default=3e-6)
    t.add_argument("--output", default="-")
    t.set_defaults(func=cmd_rate)
    return ap


def main(argv=None) -> int:
    """Run one command. Its output goes to a buffer, written to --output (or
    stdout) only once the command returns, whatever its exit code. A
    ValueError or KeyError it raises (a bad value, an unknown or incomplete
    preset, an unknown target) is a usage error: one stderr line, nothing
    written, exit code 2."""
    args = build_parser().parse_args(argv)
    out = io.StringIO()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SecularApproximationWarning)
            code = args.func(args, out)
    except (ValueError, KeyError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if len(exc.args) == 1 else exc
        print(f"{args.command}: {message}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "output", "-") == "-":
        sys.stdout.write(out.getvalue())
    else:
        with open(args.output, "w") as f:
            f.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())

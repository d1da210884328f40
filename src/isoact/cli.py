"""Command-line driver: suite runner plus per-module probes.

``isoact run`` executes a registered verification suite and emits a
deterministic report.  The module groups (``tree``, ``harmonic``,
``rtree``, ``mobius``, ``cocycle``, ``immobile``) expose the individual
constructions for ad-hoc queries with JSON input and output.

All deliberate failures surface as clean one-line errors; exit status of
``run`` is zero exactly when no check row failed.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction

import click
import numpy as np

from . import mobius as mo
from .cocycles import (
    lattice_sigma,
    random_step_automorphism,
    sigma_pair,
    step_cocycle_residual,
)
from .errors import ConfigError, ConstraintViolation, IsoactError
from .exact import parse_fraction
from .groups import su_from_json, su_random, word_from_json
from .harmonic import (
    cylinder_vertices,
    divergence,
    gram_inv_delta,
    gram_neg_log,
    poisson_transform,
    root_mean,
    tree_ball_graph,
)
from .immobile import (
    CayleyWindow,
    boundary_edge_count,
    chain_identity_residual,
    gamma_difference,
    immobile_function_test,
    indicator_from_json,
    subset_from_json,
)
from .report import MAX_TRIALS, SuiteConfig, check_row, emit_report, render_report
from .rtree import free_cayley_gamma, translation_length
from .suites import REGISTRY, run_suite
from .traintrack import CORPUS, TrackMetric, track_from_json, track_to_json
from .treeball import (
    TreeBall,
    abs_metric,
    boundary_derivative,
    cylinder_measure,
    freeword_automorphism,
    lattice_distance,
)

CONFIG_KEYS = ("suite", "seed", "trials", "tolerance", "params")
MAX_STEP_LEVEL = 10
# primes are checked by trial division up to the square root, a thousand steps here
MAX_PRIME = 10**6
# the seed range of SuiteConfig
SEED = click.IntRange(0, 2**64 - 1)
# Work counts of the harmonic probes, worked out below from n, radius and k.
# A unit takes about 11 us in poisson and 4.5 us in gram on a 2-vCPU VM, so
# the largest accepted probe runs for about 3 s.
MAX_POISSON_WORK = 3 * 10**5
MAX_GRAM_WORK = 7 * 10**5


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except IsoactError as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


def emit(data) -> None:
    click.echo(json.dumps(data, sort_keys=True, indent=2))


def parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON for {what}: {exc}") from exc


def parse_option(text: str, what: str, decode):
    """``decode`` applied to the JSON of option ``what``; its rejection names the option."""
    data = parse_json(text, what)
    try:
        return decode(data)
    except ConstraintViolation as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def parse_address(text: str, what: str):
    """A tree-ball address: a JSON list of integer digits."""
    digits = parse_json(text, what)
    if not isinstance(digits, list) or not all(type(d) is int for d in digits):
        raise ConfigError(f"{what} must be a JSON list of integers, got {text!r}")
    return tuple(digits)


def parse_group(text: str) -> int:
    match = re.fullmatch(r"F(\d+)", text)
    if not match or int(match.group(1)) < 2:
        raise ConfigError(f"group must be 'F<rank>' with rank >= 2, got {text!r}")
    return int(match.group(1))


def parse_schedule(text: str):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"schedule must be comma-separated integers, got {text!r}") from exc


def require_work(command: str, work: int, cap: int, n: int, radius: int, k: int) -> None:
    if work > cap:
        raise ConfigError(
            f"harmonic {command}: --n {n} --radius {radius} --k {k} give a work count of "
            f"{work}, over the cap of {cap}; lower --radius, --k or --n"
        )


def suite_range(suite: str, name: str) -> click.IntRange:
    """The range of a suite's integer parameter, for a probe option that sizes the same work."""
    param = next(p for p in REGISTRY[suite].params if p.name == name)
    return click.IntRange(param.low, param.high)


def load_track(source: str):
    """Accept a corpus name, a JSON file path, or inline JSON."""
    if source in CORPUS:
        return CORPUS[source]()
    if source.lstrip().startswith("{"):
        return track_from_json(parse_json(source, "train track"))
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return track_from_json(json.load(handle))
    except OSError as exc:
        names = ", ".join(sorted(CORPUS))
        raise ConfigError(f"no such track {source!r}; corpus names: {names} ({exc})") from exc


@click.group()
def main():
    """Verification tools for affine isometric group actions."""


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


@main.command(name="run")
@click.option("--suite", type=str, default=None, help="Suite name; see --list.")
@click.option("--seed", type=int, default=None, help="64-bit reproducibility seed.")
@click.option("--trials", type=int, default=None, help="Number of random trials.")
@click.option("--tol", type=float, default=None, help="Residual tolerance for float checks.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write report here.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option(
    "--list", "list_suites", is_flag=True, help="List the suites with their parameters and exit."
)
@click.pass_context
@guarded
def run_command(ctx, suite, seed, trials, tol, out, fmt, config_path, list_suites):
    """Run one verification suite and emit its report."""
    if list_suites:
        emit(
            {
                name: {
                    "checks": entry.description,
                    "params": {
                        p.name: {
                            "default": str(p.default) if isinstance(p.default, Fraction) else p.default,
                            "allowed": p.describe(),
                        }
                        for p in entry.params
                    },
                }
                for name, entry in REGISTRY.items()
            }
        )
        return
    file_cfg = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8", errors="replace") as handle:
            file_cfg = parse_json(handle.read(), f"--config {config_path}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"--config {config_path} must hold a JSON object, got {file_cfg!r}")
        for key in file_cfg:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key {key!r}")
    flags = {"suite": suite, "seed": seed, "trials": trials, "tolerance": tol}
    merged = {**file_cfg, **{key: v for key, v in flags.items() if v is not None}}
    if merged.get("suite") is None:
        raise ConfigError("no suite given; pass --suite or put 'suite' in the config file")
    report = run_suite(SuiteConfig.make(**merged))
    if out is not None:
        emit_report(report, fmt, out)
        counts = report.summary()
        click.echo(
            f"{report.suite}: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['unresolved']} unresolved -> {out}"
        )
    else:
        click.echo(render_report(report, fmt), nl=False)
    ctx.exit(report.exit_status())


# ---------------------------------------------------------------------------
# tree group
# ---------------------------------------------------------------------------


@main.group()
def tree():
    """Regular tree balls, their absolute, and lattice distances."""


@tree.command(name="ball")
@click.option("--n", type=int, required=True)
@click.option("--radius", type=int, required=True)
@guarded
def tree_ball(n, radius):
    """Vertex counts of the radius-R ball in the (n+1)-regular tree."""
    ball = TreeBall(n, radius)
    emit(
        {
            "n": n,
            "radius": radius,
            "vertices": ball.vertex_count(),
            "leaves": len(ball.leaves()),
        }
    )


@tree.command(name="dist")
@click.option("--n", type=int, required=True)
@click.option("--radius", type=int, required=True)
@click.option("--u", type=str, required=True, help="Address as JSON array.")
@click.option("--v", type=str, required=True)
@guarded
def tree_dist(n, radius, u, v):
    """Graph distance between two ball vertices."""
    ball = TreeBall(n, radius)
    emit({"distance": ball.distance(parse_address(u, "--u"), parse_address(v, "--v"))})


@tree.command(name="absmetric")
@click.option("--n", type=int, required=True)
@click.option("--radius", type=int, required=True)
@click.option("--x", type=str, required=True, help="Boundary address as JSON array.")
@click.option("--y", type=str, required=True)
@guarded
def tree_absmetric(n, radius, x, y):
    """Ultrametric between two ends, read off their common prefix."""
    ball = TreeBall(n, radius)
    value = abs_metric(ball, parse_address(x, "--x"), parse_address(y, "--y"))
    emit({"delta": str(value)})


@tree.command(name="measure")
@click.option("--n", type=int, required=True)
@click.option("--radius", type=int, required=True)
@click.option("--v", type=str, required=True)
@guarded
def tree_measure(n, radius, v):
    """Canonical measure of the cylinder below a vertex."""
    ball = TreeBall(n, radius)
    emit({"measure": str(cylinder_measure(ball, parse_address(v, "--v")))})


@tree.command(name="latdist")
@click.option("--p", type=click.IntRange(2, MAX_PRIME), required=True)
@click.option("--m1", type=str, required=True, help="2x2 rational matrix as JSON.")
@click.option("--m2", type=str, required=True)
@guarded
def tree_latdist(p, m1, m2):
    """Tree distance between two lattice classes given by column matrices."""

    def matrix(text, what):
        def decode(rows):
            if not (
                isinstance(rows, list)
                and len(rows) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in rows)
            ):
                raise ConfigError(f"{what} must be a 2x2 JSON matrix, got {text!r}")
            return tuple(tuple(parse_fraction(x) for x in row) for row in rows)

        return parse_option(text, what, decode)

    emit({"distance": lattice_distance(matrix(m1, "--m1"), matrix(m2, "--m2"), p)})


@tree.command(name="deriv")
@click.option("--radius", type=int, required=True)
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--word", type=str, required=True, help="Reduced word as JSON letters.")
@click.option("--end", type=str, required=True, help="Ray prefix as JSON address.")
@guarded
def tree_deriv(radius, rank, word, end):
    """Boundary derivative of a free-word automorphism at an end."""
    g = parse_option(word, "--word", lambda data: word_from_json(data, rank))
    auto = freeword_automorphism(g, radius)
    value = boundary_derivative(auto, parse_address(end, "--end"))
    emit({"derivative": str(value)})


# ---------------------------------------------------------------------------
# harmonic group
# ---------------------------------------------------------------------------


@main.group()
def harmonic():
    """Discrete calculus on tree balls and boundary kernels."""


@harmonic.command(name="poisson")
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--radius", type=int, default=4, show_default=True)
@click.option("--k", type=int, default=2, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@guarded
def harmonic_poisson(n, radius, k, seed):
    """Interior divergence of the transform of zero-mean boundary data."""
    ball = TreeBall(n, radius)
    # the transform weighs every leaf from one end of every edge
    leaves = (n + 1) * n ** (radius - 1)
    require_work("poisson", (ball.vertex_count() - 1) * leaves, MAX_POISSON_WORK, n, radius, k)
    graph = tree_ball_graph(ball)
    rng = np.random.default_rng([seed, 0])
    cyls = cylinder_vertices(ball, k)
    raw = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in cyls]
    shift = sum(raw, Fraction(0)) / len(raw)
    data = {c: r - shift for c, r in zip(cyls, raw)}
    vals = poisson_transform(ball, graph, k, data)
    div = divergence(graph, vals)
    worst = max(
        (abs(div[i]) for i, flag in enumerate(graph.interior) if flag), default=Fraction(0)
    )
    params = {"n": n, "radius": radius, "k": k, "seed": seed}
    emit(
        {
            "check": "poisson-interior-divergence",
            "params": params,
            "root_mean": str(root_mean(ball, k, data)),
            "residual": str(worst),
            "verdict": check_row("poisson-interior-divergence", params, worst, worst, 0).verdict,
        }
    )


@harmonic.command(name="gram")
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--radius", type=int, default=4, show_default=True)
@click.option("--k", type=int, default=2, show_default=True)
@click.option(
    "--kernel", type=click.Choice(["inv_delta", "neg_log"]), default="neg_log", show_default=True
)
@guarded
def harmonic_gram(n, radius, k, kernel):
    """Cylinder-difference gram matrix and its zero-mean minimal eigenvalue."""
    ball = TreeBall(n, radius)
    if not 1 <= k <= radius:
        raise ConfigError(f"--k must lie in 1..{radius}, the radius, got {k}")
    # gram_neg_log, the costlier kernel, pairs k sparse levels for each of its
    # (cylinders - 1)^2 entries; converting and printing an entry costs about
    # four levels more.  gram_inv_delta reads four pair energies per entry.
    cylinders = (n + 1) * n ** (k - 1)
    work = (cylinders - 1) ** 2 * (k + 4)
    require_work("gram", work, MAX_GRAM_WORK, n, radius, k)
    matrix = gram_inv_delta(ball, k) if kernel == "inv_delta" else gram_neg_log(ball, k)
    m = len(matrix)
    dense = np.array([[float(x) for x in row] for row in matrix])
    ones = np.ones((m, 1)) / np.sqrt(m)
    basis = np.linalg.qr(np.eye(m) - ones @ ones.T)[0][:, : m - 1]
    restricted = basis.T @ dense @ basis
    min_eig = float(np.linalg.eigvalsh((restricted + restricted.T) / 2)[0])
    emit(
        {
            "kernel": kernel,
            "params": {"n": n, "radius": radius, "k": k},
            "matrix": [[str(x) for x in row] for row in matrix],
            "min_eigenvalue_zero_mean": min_eig,
        }
    )


# ---------------------------------------------------------------------------
# rtree group
# ---------------------------------------------------------------------------


@main.group()
def rtree():
    """Train tracks, metric trees, and free-group tree actions."""


@rtree.command(name="validate")
@click.option("--track", type=str, required=True, help="Corpus name, file, or inline JSON.")
@click.pass_context
def rtree_validate(ctx, track):
    """Check the matching conditions of a train track."""
    try:
        loaded = load_track(track)
    except IsoactError as exc:
        emit({"ok": False, "error": str(exc)})
        ctx.exit(1)
    emit(
        {
            "ok": True,
            "vertices": len(loaded.vertices),
            "edges": len(loaded.edge_ends),
            "json": track_to_json(loaded),
        }
    )


@rtree.command(name="metric")
@click.option("--track", type=str, required=True)
@click.option("--points", type=str, required=True, help='JSON [[edge, "p/q"], ...].')
@guarded
def rtree_metric(track, points):
    """Exact pairwise strip-space distances between chart points."""
    loaded = load_track(track)

    def decode(entries):
        if not isinstance(entries, list) or not all(
            isinstance(p, list) and len(p) == 2 and type(p[0]) is int for p in entries
        ):
            raise ConfigError(
                f'--points must be a JSON list of [edge, "p/q"] pairs, got {points!r}'
            )
        return [(e, parse_fraction(x)) for e, x in entries]

    metric = TrackMetric(loaded, parse_option(points, "--points", decode))
    emit({"distances": [[str(d) for d in row] for row in metric.pairwise()]})


@rtree.command(name="length")
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--word", type=str, required=True)
@guarded
def rtree_length(rank, word):
    """Translation length and cyclic-reduction conjugator of a word."""
    g = parse_option(word, "--word", lambda data: word_from_json(data, rank))
    core, conj = g.cyclic_reduce()
    emit(
        {
            "length": translation_length(g),
            "core": list(core.letters),
            "conjugator": list(conj.letters),
        }
    )


@rtree.command(name="gamma")
@click.option("--rank", type=int, default=2, show_default=True)
@click.option("--alpha", type=int, default=1, show_default=True)
@click.option("--word", type=str, required=True)
@guarded
def rtree_gamma(rank, alpha, word):
    """Collapsed-tree cocycle of a word, edge by edge."""
    g = parse_option(word, "--word", lambda data: word_from_json(data, rank))
    vector = free_cayley_gamma(g, alpha)
    emit(
        {
            "edges": [
                {"tail": list(letters), "letter": j, "coeff": str(c)}
                for (letters, j), c in vector.coeffs
            ],
            "norm2": str(vector.norm2()),
        }
    )


# ---------------------------------------------------------------------------
# mobius group
# ---------------------------------------------------------------------------


@main.group()
def mobius():
    """Disc isometries: grams, cocycles, lengths, and kernels."""


@mobius.command(name="gram")
@click.option("--g1", type=str, required=True, help='SU(1,1) element as {"a":[re,im],"b":[re,im]}.')
@click.option("--g2", type=str, required=True)
@guarded
def mobius_gram(g1, g2):
    """Closed-form pairing of two disc cocycles."""
    a = parse_option(g1, "--g1", su_from_json)
    b = parse_option(g2, "--g2", su_from_json)
    value = mo.gamma_gram(a, b)
    emit(
        {
            "gram": [value.real, value.imag],
            "norm2_g1": mo.phi(a),
            "norm2_g2": mo.phi(b),
        }
    )


@mobius.command(name="cocycle")
@click.option("--g1", type=str, required=True)
@click.option("--g2", type=str, required=True)
@click.option("--degree", type=suite_range("cocycle-law", "degree"), default=80, show_default=True)
@guarded
def mobius_cocycle(g1, g2, degree):
    """Truncated affine cocycle residual on the half-degree block."""
    a = parse_option(g1, "--g1", su_from_json)
    b = parse_option(g2, "--g2", su_from_json)
    residual = mo.affine_cocycle_residual(a, b, degree=degree)
    emit({"residual": residual, "degree": degree})


@mobius.command(name="length")
@click.option("--g", type=str, required=True)
@guarded
def mobius_length(g):
    """Hyperbolic translation length of a disc isometry."""
    emit({"length": mo.hyperbolic_length(parse_option(g, "--g", su_from_json))})


@mobius.command(name="gns")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--size", type=suite_range("cpd-gns", "sample_size"), default=8, show_default=True)
@guarded
def mobius_gns(seed, size):
    """Embedding distances versus squared norms from the gram factorisation."""
    rng = np.random.default_rng([seed])
    els = [su_random(rng, 0.8) for _ in range(size)]
    gram = mo.gns_gram(els)
    vecs = mo.gns_vectors(gram)
    worst = 0.0
    for i, gi in enumerate(els):
        for j, gj in enumerate(els):
            dist2 = float(np.sum((vecs[i] - vecs[j]) ** 2))
            worst = max(worst, abs(dist2 - mo.phi(gi * gj.inverse())))
    tolerance = REGISTRY["cpd-gns"].default_tolerance
    verdict = check_row("gns-distance", {"seed": seed, "size": size}, worst, worst, tolerance).verdict
    emit({"distance_residual": worst, "size": size, "verdict": verdict})


@mobius.command(name="probe")
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--powers", type=click.IntRange(4, MAX_TRIALS), default=20, show_default=True)
@click.option("--slope-threshold", type=float, default=0.1, show_default=True)
@guarded
def mobius_probe(seed, powers, slope_threshold):
    """Growth probe along powers; flags unbounded trends, never triviality."""
    rng = np.random.default_rng([seed])
    g = su_random(rng, 0.8)
    norms = []
    power = g
    for _ in range(powers):
        norms.append(mo.phi(power))
        power = power * g
    sup, slope = mo.power_growth(norms)
    flag = "nontrivial (unbounded trend)" if slope > slope_threshold else "inconclusive"
    emit({"sup_norm2": sup, "slope": slope, "flag": flag})


# ---------------------------------------------------------------------------
# cocycle group
# ---------------------------------------------------------------------------


@main.group()
def cocycle():
    """Scalar 2-cocycles: symplectic, averaged, lattice, and step groups."""


@cocycle.command(name="lattice")
@click.option("--first", type=str, required=True, help='JSON [[alpha, [[re,im],...]], ...].')
@click.option("--second", type=str, required=True)
@guarded
def cocycle_lattice(first, second):
    """Exact symplectic form of two formal lattice combinations."""

    def combo(text, what):
        def decode(entries):
            if not isinstance(entries, list) or not all(
                isinstance(e, list)
                and len(e) == 2
                and isinstance(e[1], list)
                and all(isinstance(p, list) and len(p) == 2 for p in e[1])
                for e in entries
            ):
                raise ConfigError(
                    f"{what} must be a JSON list of [alpha, [[re, im], ...]] pairs, got {text!r}"
                )
            return [
                (
                    parse_fraction(alpha),
                    tuple((parse_fraction(re), parse_fraction(im)) for re, im in vec),
                )
                for alpha, vec in entries
            ]

        return parse_option(text, what, decode)

    value = lattice_sigma(combo(first, "--first"), combo(second, "--second"))
    emit({"sigma": str(value)})


@cocycle.command(name="bgroup")
@click.option("--level", type=click.IntRange(0, MAX_STEP_LEVEL), default=3, show_default=True)
@click.option("--trials", type=click.IntRange(1, MAX_TRIALS), default=25, show_default=True)
@click.option("--seed", type=SEED, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@guarded
def cocycle_bgroup(level, trials, seed, tol):
    """Step-automorphism cocycle identity with disc-isometry values."""
    if not 0 < tol <= sys.float_info.max:
        raise ConfigError(f"--tol must be a positive finite number, got {tol!r}")
    worst = 0.0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        f1, f2, f3 = (
            random_step_automorphism(rng, level, lambda r: su_random(r, 0.6)) for _ in range(3)
        )
        worst = max(worst, step_cocycle_residual(f1, f2, f3, sigma_pair))
    inputs = {"level": level, "trials": trials, "seed": seed}
    emit(
        {
            "level": level,
            "trials": trials,
            "max_residual": worst,
            "verdict": check_row("step-cocycle", inputs, worst, worst, tol).verdict,
        }
    )


# ---------------------------------------------------------------------------
# immobile group
# ---------------------------------------------------------------------------


@main.group()
def immobile():
    """Almost-invariant vertex sets in free-group Cayley windows."""


@immobile.command(name="set")
@click.option("--group", type=str, default="F2", show_default=True)
@click.option("--radius", type=int, default=8, show_default=True)
@click.option("--set", "descriptor", type=str, default='{"kind":"suffix","v":[1]}', show_default=True)
@guarded
def immobile_set(group, radius, descriptor):
    """Boundary edge count of a described vertex set in one window."""
    rank = parse_group(group)
    window = CayleyWindow(rank, radius)
    subset = parse_option(descriptor, "--set", lambda data: subset_from_json(window, data))
    emit(
        {
            "group": group,
            "radius": radius,
            "set_size": len(subset),
            "window_size": len(window.vertices()),
            "boundary_edges": boundary_edge_count(window, subset),
        }
    )


@immobile.command(name="func")
@click.option("--group", type=str, default="F2", show_default=True)
@click.option("--schedule", type=str, default="4,6,8", show_default=True)
@click.option("--set", "descriptor", type=str, default='{"kind":"suffix","v":[1]}', show_default=True)
@guarded
def immobile_func(group, schedule, descriptor):
    """Boundary-energy trend of an indicator over a radius schedule."""
    rank = parse_group(group)
    radii = parse_schedule(schedule)
    indicator = parse_option(descriptor, "--set", lambda data: indicator_from_json(data, rank))
    report = immobile_function_test(rank, indicator, radii)
    emit(
        {
            "group": group,
            "schedule": list(report.radii),
            "energies": [str(v) for v in report.sums],
            "verdict": report.verdict,
        }
    )


@immobile.command(name="cocycle")
@click.option("--group", type=str, default="F2", show_default=True)
@click.option("--radius", type=int, default=8, show_default=True)
@click.option("--word", type=str, required=True)
@click.option("--q", type=str, default=None, help="Second word for the chain identity.")
@click.option("--set", "descriptor", type=str, default='{"kind":"suffix","v":[1]}', show_default=True)
@guarded
def immobile_cocycle(group, radius, word, q, descriptor):
    """Support of the difference function of an indicator under one word."""
    rank = parse_group(group)
    window = CayleyWindow(rank, radius)
    indicator = parse_option(descriptor, "--set", lambda data: indicator_from_json(data, rank))
    g = parse_option(word, "--word", lambda data: word_from_json(data, rank))
    diff = gamma_difference(window, indicator, g)
    result = {
        "group": group,
        "radius": radius,
        "support": [
            {"at": list(h.letters), "value": int(v)}
            for h, v in sorted(diff.items(), key=lambda item: item[0].letters)
        ],
    }
    if q is not None:
        qw = parse_option(q, "--q", lambda data: word_from_json(data, rank))
        result["chain_residual"] = chain_identity_residual(window, indicator, g, qw)
    emit(result)


if __name__ == "__main__":
    main()

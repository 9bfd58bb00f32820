"""The four closed-loop workloads of the cfcool benchmark.

Each workload turns a seed into a pool of op inputs, runs one op through the
package's public functions, and checks that op's output independently.  The
package only ever sees the generated inputs.  Every op of a workload has the
same type and size, so its latency distribution has a single mode.

A workload class provides:

- ``inputs(rng, i)``: input ``i`` of the pool (a plain dict), drawn from ``rng``;
- ``run(spec, tmp)``: the timed op; returns what ``collect`` needs;
- ``collect(spec, tmp, raw)``: untimed; the op's output as bytes plus any
  decoded form the check needs;
- ``check(spec, out)``: a list of failure messages, empty when correct;
- ``corrupt(spec, out)``: a damaged copy of ``out`` that ``check`` must reject
  (used by the self-test only).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

import numpy as np

from cfcool import cli, design, netalg, oracle, spectra
from cfcool.errors import SingularLoop

#: Distinct op inputs per run; op i uses input i % POOL, so inputs repeat in
#: long runs and repeated outputs are compared byte for byte.
POOL = 64

#: Rows re-evaluated independently per op.
SAMPLES = 8


def f17(x: float) -> str:
    return f"{float(x):.17g}"


def rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OpError(Exception):
    """An op exited non-zero or produced no output."""


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += ["--" + key.replace("_", "-"), value if isinstance(value, str) else f17(value)]
    return out


def _run_cli(argv: list[str], path: Path) -> int:
    return cli.main(argv + ["--output", str(path)])


def _read_cli(code: int, path: Path) -> bytes:
    if code != 0:
        raise OpError(f"cli exit code {code}")
    return path.read_bytes()


def parse_csv(data: bytes):
    """Split cfcool CSV into (metadata dict, columns, rows of float|None)."""
    lines = data.decode("utf-8").split("\n")
    if not lines[0].startswith("# ") or lines[-1] != "":
        raise OpError("malformed CSV framing")
    meta = dict(pair.split("=", 1) for pair in lines[0][2:].split(" "))
    columns = lines[1].split(",")
    rows = [
        [None if cell == "" else float(cell) for cell in line.split(",")]
        for line in lines[2:-1]
    ]
    return meta, columns, rows


def echoed_config(meta: dict) -> cli.RunConfig:
    """Re-parse the metadata line; underscore keys are informational."""
    return cli.resolve_config({k: v for k, v in meta.items() if not k.startswith("_")})


def _symmetric_loop(rng: random.Random, topology: str) -> dict:
    return {
        "topology": topology,
        "kappa": rng.uniform(1.0, 30.0),
        "g": rng.uniform(0.01, 0.3),
        "kappa_f": rng.uniform(0.25, 4.0),
        "delta": rng.uniform(-5.0, -0.5),
    }


# ---------------------------------------------------------------------------
# spectrum_closed: the README's main command at 20001 points
# ---------------------------------------------------------------------------


class SpectrumClosed:
    points = 20001
    columns = ["omega", "Sigma", "Sigma_uncontrolled"]

    def inputs(self, rng, i):
        params = _symmetric_loop(rng, ("notch", "bandpass")[i % 2])
        params["omega_min"] = rng.uniform(-6.0, -1.5)
        params["omega_max"] = rng.uniform(1.5, 6.0)
        params["points"] = str(self.points)
        return {
            "argv": ["spectrum"] + _flags(params),
            "sample": sorted(rng.sample(range(self.points), SAMPLES)),
        }

    def run(self, spec, tmp):
        return _run_cli(spec["argv"], tmp / "spectrum.csv")

    def collect(self, spec, tmp, raw):
        data = _read_cli(raw, tmp / "spectrum.csv")
        return data, parse_csv(data)

    def check(self, spec, out):
        _, (meta, columns, rows) = out
        errors = []
        if columns != self.columns:
            errors.append(f"columns {columns}")
        if len(rows) != self.points:
            return errors + [f"{len(rows)} rows, asked for {self.points}"]
        cfg = echoed_config(meta)
        if cfg != cli.parse_config(spec["argv"][1:]):
            errors.append("metadata does not parse back to the requested RunConfig")
        omega = np.array([r[0] for r in rows])
        unc = np.array([r[2] for r in rows])
        g, kappa, omega_m = cfg.g, cfg.kappa, cfg.omega_m
        lorentz = g * g * kappa / ((omega - omega_m) ** 2 + kappa * kappa / 4.0)
        worst = float(np.max(np.abs(unc - lorentz) / lorentz))
        if not worst <= 1e-12:
            errors.append(f"Sigma_uncontrolled off the Lorentzian by {worst:.3e}")
        net = design.network_for(cli.system_config(cfg))
        for idx in spec["sample"]:
            w, sigma = rows[idx][0], rows[idx][1]
            try:
                ref = g * g * abs(netalg.solve_network(net, w)) ** 2
            except SingularLoop:
                ref = None
            if (sigma is None) != (ref is None) or (
                ref is not None and not rel_err(sigma, ref) <= 1e-10
            ):
                errors.append(f"row {idx}: Sigma {sigma!r} vs solver {ref!r}")
        return errors

    def corrupt(self, spec, out):
        data, (meta, columns, rows) = out
        rows = [list(r) for r in rows]
        rows[len(rows) // 3][2] *= 1.0 + 1e-9
        return data + b"#", (meta, columns, rows)


# ---------------------------------------------------------------------------
# spectrum_solver: rate_spectrum through the network solver at 5001 points
# ---------------------------------------------------------------------------


class SpectrumSolver:
    points = 5001

    def inputs(self, rng, i):
        cav = netalg.OptoCavityParams(
            kappa=rng.uniform(1.0, 30.0),
            delta=rng.uniform(-5.0, -0.5),
            g=rng.uniform(0.01, 0.3),
            omega_m=1.0,
        )
        kappa1 = rng.uniform(0.25, 4.0)
        filt = netalg.FilterCavityParams(
            kappa1=kappa1,
            kappa2=kappa1 * rng.uniform(1.1, 1.5),
            kappa_loss=rng.uniform(0.05, 0.5),
            delta_f=1.0 if i % 2 == 0 else -1.0,
        )
        topology = design.Topology.NOTCH if i % 2 == 0 else design.Topology.BANDPASS
        config = design.SystemConfig(cav, filt, topology, delay=rng.uniform(0.01, 0.2))
        grid = np.linspace(rng.uniform(-6.0, -1.5), rng.uniform(1.5, 6.0), self.points)
        return {
            "config": config,
            "grid": grid,
            "sample": sorted(rng.sample(range(self.points), SAMPLES)),
        }

    def run(self, spec, tmp):
        config = spec["config"]
        return spectra.rate_spectrum(
            design.closed_loop_response(config), config.cav.g, spec["grid"]
        )

    def collect(self, spec, tmp, raw):
        return raw.omegas.tobytes() + raw.values.tobytes(), raw

    def check(self, spec, out):
        _, result = out
        values = result.values
        errors = []
        if values.shape != (self.points,) or not np.array_equal(result.omegas, spec["grid"]):
            return [f"spectrum shape {values.shape} or grid differs from the request"]
        if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
            errors.append("non-finite or negative spectrum values")
        config = spec["config"]
        net = design.network_for(config)
        g = config.cav.g
        for idx in spec["sample"]:
            ref = g * g * abs(netalg.solve_network(net, float(spec["grid"][idx]))) ** 2
            if not rel_err(float(values[idx]), ref) <= 1e-10:
                errors.append(f"point {idx}: {values[idx]!r} vs scalar solver {ref!r}")
        return errors

    def corrupt(self, spec, out):
        data, result = out
        values = result.values * (1.0 + 1e-9)
        return data + b"#", dataclasses.replace(result, values=values)


# ---------------------------------------------------------------------------
# sweep: 501-row parameter sweep with stability flags
# ---------------------------------------------------------------------------

#: Seeded (low, high) ranges of each swept parameter's endpoints.
SWEEP_RANGES = {
    "delta": ((-8.0, -3.0), (-1.0, -0.1)),
    "kappa": ((0.5, 2.0), (10.0, 40.0)),
    "g": ((0.001, 0.02), (0.05, 0.3)),
    "kappa_f": ((0.1, 0.5), (2.0, 8.0)),
}


def _with_value(config: design.SystemConfig, param: str, value: float) -> design.SystemConfig:
    """The row configuration of a sweep over a symmetric lossless loop."""
    if param == "kappa_f":
        return dataclasses.replace(
            config, filt=netalg.FilterCavityParams.symmetric(value, config.filt.delta_f)
        )
    return dataclasses.replace(config, cav=dataclasses.replace(config.cav, **{param: value}))


class Sweep:
    rows = 501

    def inputs(self, rng, i):
        params = _symmetric_loop(rng, ("notch", "bandpass")[i % 2])
        # Every pool holds the same mix of topology and swept parameter.
        param = sorted(SWEEP_RANGES)[(i // 2) % len(SWEEP_RANGES)]
        (lo_a, lo_b), (hi_a, hi_b) = SWEEP_RANGES[param]
        params.update(
            sweep_param=param,
            sweep_min=rng.uniform(lo_a, lo_b),
            sweep_max=rng.uniform(hi_a, hi_b),
            sweep_points=str(self.rows),
        )
        return {
            "argv": ["sweep"] + _flags(params),
            "sample": sorted(rng.sample(range(self.rows), SAMPLES)),
        }

    def run(self, spec, tmp):
        return _run_cli(spec["argv"], tmp / "sweep.csv")

    def collect(self, spec, tmp, raw):
        data = _read_cli(raw, tmp / "sweep.csv")
        return data, parse_csv(data)

    def check(self, spec, out):
        _, (meta, columns, rows) = out
        if len(rows) != self.rows:
            return [f"{len(rows)} rows, asked for {self.rows}"]
        cfg = echoed_config(meta)
        param = cfg.sweep_param
        config = cli.system_config(cfg)
        bath = spectra.MechanicalBath(gamma_m=cfg.gamma_m, n_th=cfg.n_th)
        errors = []
        if cfg.topology == "notch":
            leaks = [i for i, r in enumerate(rows) if r[6] == 0.0 and r[1] != 0.0]
            if leaks:
                errors.append(f"notch rows {leaks[:5]} have a_plus != 0")
        for idx in spec["sample"]:
            value, a_plus, a_minus, _, _, stable, singular = rows[idx]
            row_cfg = _with_value(config, param, value)
            flag = float(oracle.is_stable(oracle.build_state_space(row_cfg, bath)))
            if stable != flag:
                errors.append(f"row {idx}: stable {stable!r}, oracle says {flag!r}")
            if singular:
                continue
            ref = spectra.scattering_rates(
                design.closed_loop_response(row_cfg, method="solver"),
                row_cfg.cav.g,
                row_cfg.cav.omega_m,
            )
            scale = max(ref.a_plus, ref.a_minus)
            if abs(a_plus - ref.a_plus) > 1e-10 * scale or abs(a_minus - ref.a_minus) > 1e-10 * scale:
                errors.append(f"row {idx}: rates ({a_plus!r}, {a_minus!r}) vs solver {ref!r}")
        return errors

    def corrupt(self, spec, out):
        data, (meta, columns, rows) = out
        rows = [list(r) for r in rows]
        for r in rows:
            if r[6] == 0.0:
                r[1] = 5e-324
        return data + b"#", (meta, columns, rows)


# ---------------------------------------------------------------------------
# design_verify: argmax search, then rates and oracle at the found detuning
# ---------------------------------------------------------------------------

#: Criterion 8's mechanical bath.
GAMMA_M, N_TH = 1e-5, 100.0


class DesignVerify:
    def inputs(self, rng, i):
        kappa = rng.uniform(1.0, 20.0)
        # Weak coupling, where the rate picture must hold to 5%: at g = kappa/100
        # it already misses by 10-200% once kappa*kappa_f >= 30 (see README).
        return {
            "kappa": kappa,
            "kappa_f": rng.uniform(0.25, 4.0),
            "g": kappa * rng.uniform(0.0005, 0.0025),
        }

    def _argv(self, command, spec, delta):
        params = {
            "topology": "notch",
            "kappa": spec["kappa"],
            "g": spec["g"],
            "kappa_f": spec["kappa_f"],
            "delta": delta,
        }
        if command == "oracle":
            params.update(gamma_m=GAMMA_M, n_th=N_TH)
        return [command] + _flags(params)

    def run(self, spec, tmp):
        config = design.make_notch(spec["kappa"], 1.0, spec["g"], spec["kappa_f"])
        delta = float(design.argmax_detuning_numeric(config, tol=1e-7))
        codes = [
            _run_cli(self._argv(command, spec, delta), tmp / f"{command}.csv")
            for command in ("rates", "oracle")
        ]
        return delta, codes

    def collect(self, spec, tmp, raw):
        delta, codes = raw
        files = [_read_cli(code, tmp / f"{c}.csv") for code, c in zip(codes, ("rates", "oracle"))]
        data = f17(delta).encode() + b"\n" + b"".join(files)
        return data, (delta, *[parse_csv(f) for f in files])

    def check(self, spec, out):
        _, (delta, (_, rcols, rrows), (_, ocols, orows)) = out
        errors = []
        optimum = design.optimal_detuning(1.0, spec["kappa"], spec["kappa_f"])
        if not abs(delta - optimum) <= 1e-6:
            errors.append(f"argmax {delta!r} vs closed form {optimum!r}")
        rates = dict(zip(rcols, rrows[0]))
        if rates["a_plus"] != 0.0:
            errors.append(f"a_plus {rates['a_plus']!r} != 0 at the notch")
        report = dict(zip(ocols, orows[0]))
        if report["stable"] != 1.0:
            errors.append("oracle reports an unstable loop")
        elif not report["rel_dev"] <= 0.05:
            errors.append(f"oracle rel_dev {report['rel_dev']!r} > 0.05")
        return errors

    def corrupt(self, spec, out):
        data, (delta, rates, report) = out
        meta, cols, rows = rates
        rows = [[5e-324] + list(rows[0][1:])]
        return data + b"#", (delta, (meta, cols, rows), report)


WORKLOADS = {
    "spectrum_closed": SpectrumClosed(),
    "spectrum_solver": SpectrumSolver(),
    "sweep": Sweep(),
    "design_verify": DesignVerify(),
}


def make_inputs(name: str, seed: int) -> list[dict]:
    """The seeded pool of op inputs; the same seed gives the same pool."""
    rng = random.Random(f"{name}:{seed}")
    workload = WORKLOADS[name]
    return [workload.inputs(rng, i) for i in range(POOL)]

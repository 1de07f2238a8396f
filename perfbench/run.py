"""tdlab benchmark: time to an exact verdict, driven through tdlab's CLI and library.

Run from the root of a tdlab checkout:

    python3 perfbench/run.py --workload library-suite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload reject --seed 1 --seconds 40 --trace 1

The benchmark generates its inputs from the seed (perfbench/gen.py, which
does not import tdlab), runs them as one closed-loop client in one process
with no threads, checks every verdict against the theory, and prints each
metric by name and unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from
perfbench/spans.py, plus the tracing overhead.

CLI commands run as fresh processes, one at a time, as a user runs them:
`python3 -m tdlab.cli ...` untraced, `python3 perfbench/child.py ...` traced.
Per-output SHA-256 digests go to .perfbench-work/digests-*.jsonl so that
runs on two commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

WORKLOADS = {
    "library-suite": (
        "pre-validated d = 4 Leonard pairs and (1,2,1) shapes through the "
        "apparatus, operators, suite and decomposition: validation is timed only as set-up"
    ),
    "reject": (
        "invalid inputs, most refused: early and late axiom failures, malformed, "
        "degenerate and oversized files, plus a valid control"
    ),
}

# Identity checks for a Leonard pair; each nonzero K_i with i >= 1 adds one
# lem.minpoly.MK_i check.
LEONARD_CHECKS = 84
# library-suite pool, validated during set-up and cycled in rounds: a d = 4
# Leonard pair takes seconds to validate, ten times a sample, so each sample
# cannot have a fresh instance.  Shapes are a fixed third, so the median
# falls among the Leonard pairs.  Each entry fixes (q, a, b), as an index of
# gen.PARAMS, and the seed draws only phi (or the shape's point), so the
# set-up cost varies little from seed to seed.
LIBRARY_POOL = (("leonard", 1), ("leonard", 3), ("shape", 4),
                ("leonard", 5), ("leonard", 7), ("shape", 4))
# (q, a, b) of reject's valid control, whose validation is reject's set-up.
CONTROL_PARAMS = 4
# reject round: (class, count).  The median falls inside "off-line"; the
# oversized files are the slowest class and fill the tail.
REJECT_ROUND = (
    ("off-line", 8),
    ("shape-131", 1),
    ("shape-1221", 1),
    ("malformed", 3),
    ("degenerate", 3),
    ("oversized", 6),
    ("control", 1),  # three operations: generate, verify, decompose
)
OP_TIMEOUT_S = 120


def expected_components(inst) -> list:
    """L(d-2i, 1) with multiplicity rho_i - rho_(i-1), Casimir q^(d-2i+1) + q^-(d-2i+1)."""
    d, q, shape = inst["d"], inst["q"], inst["shape"]
    out = []
    for i in range(d // 2 + 1):
        m = shape[i] - (shape[i - 1] if i else 0)
        if m:
            n = d - 2 * i
            out.append({
                "casimir": str(q ** (n + 1) + q ** -(n + 1)),
                "component": f"L({n},1)",
                "i": i,
                "multiplicity": m,
            })
    return out


def report_problem(text: str, inst) -> str | None:
    """Why a verify report is wrong, or None: every check passes, the right count."""
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        return "report is not JSON lines"
    minpoly = {f"lem.minpoly.MK{c['i']}" for c in expected_components(inst)}
    ids = [r.get("check_id") for r in records]
    if len(ids) != LEONARD_CHECKS + len(minpoly) - 1:
        return f"{len(ids)} checks, expected {LEONARD_CHECKS + len(minpoly) - 1}"
    if ids != sorted(set(ids)):
        return "check ids are not unique and sorted"
    if {i for i in ids if i.startswith("lem.minpoly.")} != minpoly:
        return "wrong lem.minpoly checks"
    failing = [r["check_id"] for r in records if r.get("pass") is not True or "residual" in r]
    return f"checks failed: {failing[:3]}" if failing else None


def components_problem(text: str, inst) -> str | None:
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError:
        return "decomposition is not JSON lines"
    expected = expected_components(inst)
    return None if records == expected else f"components {records}, expected {expected}"


def tail(samples: list) -> tuple:
    """Highest percentile with at least 10 samples beyond it, else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} samples"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} samples"


# The host's speed drifts by up to a factor of two within seconds to
# minutes, and the drift moves every timing alike.  So a fixed
# exact-arithmetic reference kernel runs after each timed segment, and the
# segment is scaled by REFERENCE_NOMINAL_S / (recent kernel time): reported
# times are seconds on a host where the kernel takes REFERENCE_NOMINAL_S.
# Raw wall times are printed beside them.
REFERENCE_NOMINAL_S = 0.025
REFERENCE_WINDOW = 5


def reference_kernel() -> None:
    """Fixed work in the style of tdlab's: exact idempotents and one rref."""
    for b in (3, 5):
        gen.leonard_phi_line(4, Fraction(2), Fraction(3), Fraction(b))


class Clock:
    """Wall time of a sample, and the same scaled to reference speed."""

    def __init__(self):
        self.refs = []  # every reference kernel time, in seconds
        self._ref_at = None

    def _reference(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self._ref_at = time.perf_counter()
        self.refs.append(self._ref_at - start)

    def start(self) -> None:
        if self._ref_at is None or time.perf_counter() - self._ref_at > 1.0:
            self._reference()
        self._t = time.perf_counter()

    def stop(self) -> tuple:
        """(raw wall seconds, reference seconds) of the sample.

        The sample is scaled by the median of the last REFERENCE_WINDOW
        kernel times, the one just after it included: one kernel time
        alone is too noisy.  The kernel itself is not timed.
        """
        raw = time.perf_counter() - self._t
        self._reference()
        return raw, raw * REFERENCE_NOMINAL_S / statistics.median(self.refs[-REFERENCE_WINDOW:])


class Run:
    """State of one benchmark run: inputs, timings, verdicts, digests, spans."""

    def __init__(self, workload, seed, seconds, tracing, workdir):
        self.seconds, self.tracing = seconds, tracing
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.clock = Clock()
        self.samples = []  # reference seconds per instance, untraced
        self.raw_samples = []  # wall seconds per instance, untraced
        self.setups = []  # reference seconds of each set-up: validation and export check
        self.raw_setups = []  # wall seconds of the same
        self.timed = 0.0  # timed wall time so far, traced passes included
        self.attempted = 0
        self.failures = []
        self.digests = []  # (key, sha256 of one output)
        self.pairs = []  # (untraced, traced) wall time per traced instance
        self.spans = []
        self.max_bits = 0
        self.traced_instances = 0
        self.tracer = spans.Tracer() if tracing else None
        self._files = 0
        paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    # -- bookkeeping -------------------------------------------------------

    def expect(self, key, problem) -> None:
        """Count one operation; `problem` is None when its verdict and output are right."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{key}: {problem}")

    def digest(self, key, data: bytes, traced: bool) -> None:
        if not traced:
            self.digests.append((key, hashlib.sha256(data).hexdigest()))

    def path(self, suffix: str) -> Path:
        self._files += 1
        return self.workdir / f"f{self._files}{suffix}"

    def sample(self, raw: float, scaled: float, traced: float | None) -> None:
        self.samples.append(scaled)
        self.raw_samples.append(raw)
        self.timed += raw
        if traced is not None:
            self.pairs.append((raw, traced))
            self.timed += traced
            self.traced_instances += 1

    # -- running tdlab -----------------------------------------------------

    def cli(self, key, args, traced) -> tuple:
        """One CLI command in a fresh process: (exit code or None, stdout)."""
        if traced:
            span_file = self.path(".spans.jsonl")
            cmd = [sys.executable, str(HERE / "child.py"), str(span_file), key, *args]
        else:
            cmd = [sys.executable, "-m", "tdlab.cli", *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, b""
        wall = time.perf_counter() - start
        if traced and span_file.exists():
            found, bits = spans.read_records(span_file, span_file.stem)
            for s in found:
                if s["parent"] is None and s["name"].startswith("cli."):
                    s["dur"] = wall  # the command's span is its whole process
            self.spans += found
            self.max_bits = max(self.max_bits, bits)
        return proc.returncode, proc.stdout

    def call(self, key, fn, traced) -> tuple:
        """fn() in this process: (result, None) or (None, exception)."""
        if traced:
            self.tracer.key = key
            self.tracer.install()
            root = self.tracer.open("bench")
        try:
            return fn(), None
        except Exception as exc:  # the verdict is checked by the caller
            return None, exc
        finally:
            if traced:
                self.tracer.close(root)
                self.tracer.uninstall()

    def set_up(self, fn):
        """fn(), timed as set-up: fn holds only tdlab's part of set-up, not input generation."""
        self.clock.start()
        result = fn()
        raw, scaled = self.clock.stop()
        self.raw_setups.append(raw)
        self.setups.append(scaled)
        return result

    def twice(self, op) -> None:
        """Run op untraced (timed) and, in a traced run, again traced (wall time)."""
        self.clock.start()
        first = op(False)
        raw, scaled = self.clock.stop()
        traced = None
        if self.tracing:
            start = time.perf_counter()
            second = op(True)
            traced = time.perf_counter() - start
            if second != first:
                self.expect("trace", "traced output differs from untraced output")
        self.sample(raw, scaled, traced)

    # -- results -----------------------------------------------------------

    def finish(self) -> dict:
        if self.tracing:
            inproc = self.workdir / "inproc.spans.jsonl"
            self.tracer.write(inproc)
            found, bits = spans.read_records(inproc, "main")
            self.spans += found
            self.max_bits = max(self.max_bits, bits)
            metrics = spans.layer_metrics(self.spans, self.max_bits, max(self.traced_instances, 1))
            metrics["trace.overhead_s"] = statistics.median(t - u for u, t in self.pairs)
            metrics["trace.overhead_share"] = statistics.median((t - u) / u for u, t in self.pairs)
            return {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()}
        rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {
            "instance_p50_s": {"value": statistics.median(self.samples), "unit": "s"},
            "instance_tail_s": {"value": tail(self.samples)[0], "unit": "s"},
            "instances_per_s": {"value": len(self.samples) / sum(self.samples), "unit": "1/s"},
            "peak_rss_mib": {"value": rss / 1024, "unit": "MiB"},
            "setup_s": {"value": statistics.median(self.setups), "unit": "s"},
        }


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_share"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


# --------------------------------------------------------------------------
# Workloads.


def pipeline_ops(run, key, inst, path):
    """generate, verify and decompose for one valid instance, as three checked ops.

    Each op takes `traced` and returns its output bytes.  verify and
    decompose read `path`, which holds the canonical instance bytes.
    """
    args = ["--d", str(inst["d"]), "--q", str(inst["q"]), "--a", str(inst["a"]),
            "--b", str(inst["b"]), "--phi=" + ",".join(str(x) for x in inst["phi"])]

    def generate(traced):
        out = run.path(".json")
        code, _ = run.cli(key, ["generate", *args, "--out", str(out)], traced)
        text = out.read_bytes() if out.exists() else b""
        run.expect(key, None if code == 0 and text == inst["text"].encode()
                   else f"generate exit {code}, output differs from the canonical bytes")
        run.digest(key + ".generate", text, traced)
        return text

    def verify(traced):
        code, out = run.cli(key, ["verify", "--instance", str(path)], traced)
        run.expect(key, f"verify exit {code}" if code != 0
                   else report_problem(out.decode(), inst))
        run.digest(key + ".verify", out, traced)
        return out

    def decompose(traced):
        code, out = run.cli(key, ["decompose", "--instance", str(path)], traced)
        run.expect(key, f"decompose exit {code}" if code != 0
                   else components_problem(out.decode(), inst))
        run.digest(key + ".decompose", out, traced)
        return out

    return generate, verify, decompose


def validate_input(run, key, inst, path, traced):
    """Validate a valid input as a user would load it; the system, or None.

    A Leonard pair goes through forge.ingest of its file.  A shape goes
    through forge.validate, because ingest takes only n = d + 1.  The
    export must give back the input bytes.
    """
    from tdlab import forge
    from tdlab.linalg import Matrix
    from tdlab.tdsystem import QRacahParams

    def ingest_and_export():
        if "phi" in inst:
            system = forge.ingest(path)
        else:
            params = QRacahParams(inst["d"], inst["q"], inst["a"], inst["b"])
            system = forge.validate((Matrix(inst["A"]), Matrix(inst["Astar"])), params)
        return system, forge.format_instance(system)

    result, exc = run.call(key, ingest_and_export, traced)
    run.expect(key, f"set-up validation raised {exc!r}" if exc
               else None if result[1] == inst["text"]
               else "export after ingest is not byte-identical")
    return result and result[0]


def library_suite(run) -> None:
    import tdlab
    from tdlab import uqsl2

    def set_up(index, traced):
        """Generate pool instance `index`, then validate it as timed set-up."""
        key = f"p{index}"
        kind, params = LIBRARY_POOL[index]
        params = gen.PARAMS[params]
        inst = (gen.leonard_instance(run.rng, 4, params) if kind == "leonard"
                else gen.shape_instance(run.rng, 2, (1, 1), params=params))
        path = run.path(".json")
        path.write_text(inst["text"])
        return key, inst, run.set_up(lambda: validate_input(run, key, inst, path, traced))

    def sample(key, inst, system):
        def chain():
            app = tdlab.build_apparatus(system)
            ops = tdlab.build_operator_set(system, app)
            report = tdlab.full_suite(system, app, ops)
            action = uqsl2.first_structure(system, app, ops.R, ops.psi)
            dec = uqsl2.decompose_into_components(action, system, app)
            return report.to_json_lines(), dec

        def op(traced):
            result, exc = run.call(key, chain, traced)
            if exc is not None:
                run.expect(key, f"suite raised {exc!r}")
                return repr(exc)
            text, dec = result
            comps = "\n".join(json.dumps({
                "casimir": str(c.casimir_scalar), "component": f"L({c.label},1)",
                "i": c.i, "multiplicity": c.multiplicity}, sort_keys=True)
                for c in dec.components)
            run.expect(key, report_problem(text, inst) or components_problem(comps, inst))
            run.digest(key, (text + "\n" + comps).encode(), traced)
            return text, comps

        return op

    if run.tracing:
        # One pass over the pool: set-up traced, then the suite untraced and traced.
        for index in range(len(LIBRARY_POOL)):
            if run.timed >= run.seconds:
                break
            key, inst, system = set_up(index, True)
            if system is not None:
                run.twice(sample(key, inst, system))
        return
    pool = [set_up(index, False) for index in range(len(LIBRARY_POOL))]
    ops = [sample(key, inst, system) for key, inst, system in pool if system is not None]
    while ops and run.timed < run.seconds:
        for op in ops:  # whole rounds keep the Leonard/shape mix fixed
            run.twice(op)


def reject(run) -> None:
    from tdlab import forge
    from tdlab.linalg import Matrix
    from tdlab.tdsystem import QRacahParams

    def refused_by_cli(key, text):
        path = run.path(".json")
        path.write_text(text)

        def op(traced):
            code, out = run.cli(key, ["verify", "--instance", str(path)], traced)
            run.expect(key, None if code == 2 and out == b""
                       else f"verify exit {code} with {len(out)} bytes of stdout, expected 2 and none")
            run.digest(key, out, traced)
            return code, out

        return op

    def refused_by_validate(key, inst):
        params = QRacahParams(inst["d"], inst["q"], inst["a"], inst["b"])

        def op(traced):
            pair = (Matrix(inst["A"]), Matrix(inst["Astar"]))
            _, exc = run.call(key, lambda: forge.validate(pair, params), traced)
            run.expect(key, None if isinstance(exc, ValueError)
                       else f"validate gave {exc!r}, expected a ValueError")
            run.digest(key, type(exc).__name__.encode(), traced)
            return type(exc).__name__

        return op

    def make(cls, key):
        """The ops of one input of a class.

        Generating the input is not timed.  The control's validation is
        timed set-up, once per round; invalid inputs have no set-up in tdlab.
        """
        rng = run.rng
        if cls == "off-line":
            return [refused_by_cli(key, gen.off_line_instance(rng, 4)["text"])]
        if cls == "shape-131":
            return [refused_by_validate(key, gen.shape_instance(rng, 2, (1, 2), "iv"))]
        if cls == "shape-1221":
            return [refused_by_validate(key, gen.shape_instance(rng, 3, (1, 1), "iii"))]
        if cls == "malformed":
            return [refused_by_cli(key, gen.malformed_text(rng, gen.leonard_instance(rng, 2)["text"]))]
        if cls == "degenerate":
            return [refused_by_cli(key, gen.degenerate_text(rng, gen.leonard_instance(rng, 2)))]
        if cls == "oversized":
            return [refused_by_cli(key, gen.oversized_text(rng))]
        if cls == "control":
            inst = gen.leonard_instance(rng, 2, gen.PARAMS[CONTROL_PARAMS])
            path = run.path(".json")
            path.write_text(inst["text"])
            run.set_up(lambda: validate_input(run, key, inst, path, False))
            return list(pipeline_ops(run, key, inst, path))
        raise ValueError(f"unknown reject class {cls}")

    while run.timed < run.seconds:
        ops = []
        for cls, count in REJECT_ROUND:
            for _ in range(count):
                ops += make(cls, f"r{len(run.setups)}.{len(ops)}.{cls}")
        run.rng.shuffle(ops)
        for op in ops:  # whole rounds keep the class mix fixed
            run.twice(op)


RUNNERS = {"library-suite": library_suite, "reject": reject}


# --------------------------------------------------------------------------


def check_checkout() -> str | None:
    """Why tdlab cannot be benchmarked from the current directory, or None."""
    if not (SRC / "tdlab" / "__init__.py").is_file():
        return f"no tdlab sources under {SRC}; run from the root of a tdlab checkout"
    sys.path.insert(0, str(SRC))
    try:
        import tdlab
    except ImportError as exc:
        return f"cannot import tdlab: {exc}"
    if Path(tdlab.__file__).resolve().parent != (SRC / "tdlab").resolve():
        return f"imported tdlab from {tdlab.__file__}, not from {SRC}"
    return None


def run_one(workload, seed, seconds, tracing) -> int:
    problem = check_checkout()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    # One CPU for this process and, by inheritance, its children: the
    # reference kernel then sees the host speed the CLI commands see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(workload, seed, seconds, tracing, workdir)
        RUNNERS[workload](run)
        metrics = run.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest_file = WORK / f"digests-{workload}-seed{seed}.jsonl"
    if not tracing:
        with open(digest_file, "w", encoding="utf-8") as fh:
            for key, h in run.digests:
                fh.write(json.dumps({"op": key, "sha256": h}) + "\n")
    failed = len(run.failures)
    print(f"# workload {workload}: {WORKLOADS[workload]}")
    print(f"# seed {seed}, {seconds} s timed, trace {int(tracing)}, one closed-loop client")
    for name, m in metrics.items():
        note = ""
        if name == "instance_tail_s":
            note = f"  ({tail(run.samples)[1]})"
        print(f"{name:34} {m['value']:.6g} {m['unit']}{note}")
    if not tracing:
        print(f"{'failed_ratio':34} {failed / max(run.attempted, 1):.6g} ratio"
              f"  ({failed} of {run.attempted} operations)")
        print(f"# times are reference seconds: the reference kernel took a median "
              f"{statistics.median(run.clock.refs):.4g} s (nominal {REFERENCE_NOMINAL_S} s); "
              f"raw wall p50 {statistics.median(run.raw_samples):.4g} s, "
              f"tail {tail(run.raw_samples)[0]:.4g} s, set-up {statistics.median(run.raw_setups):.4g} s")
        combined = hashlib.sha256("".join(h for _, h in run.digests).encode()).hexdigest()
        print(f"# output digest {combined} over {len(run.digests)} outputs ({digest_file.name})")
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())

"""syllab benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed (bench/gen.py) into
bench/_work/ and the program sees only those files.  Workloads are described
in bench/README.md.

--trace 0 runs the real CLI (``syllab.cli.main`` from this checkout's src/)
in a fresh interpreter per invocation.  Until S seconds have passed it
repeats a set-up invocation (the work command with empty work) and the work
invocation, with a reference invocation (see REFERENCE) before and after
each, and reports

* words_per_s  median of output words / CPU time of the work command;
* setup_s      median CPU time of the set-up command (start, import,
               loading);
* peak_rss_mb  median ru_maxrss of the work command, read with os.wait4;

with both times scaled to reference speed (see REFERENCE).  CPU time is the
user and system time of the CLI process and of the children it waited for,
from os.wait4; see CPU_TIME.

--trace 1 runs the same work command in this process, alternately untraced
and with bench/tracer.py's wrappers installed, and reports the per-layer
metrics of BENCHMARK.json.  Counts come from one traced run and must repeat
in every other; times are medians over the traced runs.

Every output is checked (see check_annotations / check_ablation); with the
default seed the output files must also match bench/digests.json.  The last
stdout line is the JSON result; the exit code is 1 when any check failed and
2 when the checkout has no syllab sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_SAMPLES = 3          # work invocations per run, whatever --seconds says
CHILD_TIMEOUT_S = 120
METHODS = ("ssp", "lkp-ssp", "ssp-dtw", "lkp-ssp-dtw")
ANNOTATION_HEADER = ("sentence_id\ttoken_index\tword\tphones\tphone_syllables"
                     "\ttext_syllables\tstress\tmethod\tflags")

# The CLI entry point, run with this checkout's src/ first on the path.
# -S and an environment without PYTHON* variables keep interpreter start-up
# independent of installed packages (syllab needs only the standard
# library); a fixed hash seed makes every invocation hash strings alike.
_LAUNCH = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
           "from syllab.cli import main; sys.exit(main())")
_CHILD_ENV = {**{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
              "PYTHONHASHSEED": "0"}

END_TO_END = {"words_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW = {"wall_words_per_s": "1/s", "wall_setup_s": "s", "reference_s": "s"}

# The reference invocation: bench/reference.py, a frozen pure-Python job that
# uses neither syllab nor the input generator, timed before and after every
# measured invocation.  The CPU speed of small shared machines drifts by
# +-25% within seconds; the reference sees the same drift, so scaling each
# measured time by the references around it keeps runs made at different
# times comparable.  REFERENCE_S is the reference's typical time on the
# 2-core machine the benchmark was defined on.
REFERENCE = HERE / "reference.py"
REFERENCE_S = 0.17

# CPU_TIME: every measured time is CPU time (ru_utime + ru_stime), not wall
# time.  On a shared host the guest loses the CPU now and then (steal time);
# that shows in wall time only, and doubled the spread of the figures.  The
# workloads run one process with --jobs 1, and G2P children are counted as
# they are waited for, so for them CPU time is the wall time less the waits
# for the host.  The wall figures are still printed, unscaled.


@dataclass
class Job:
    """One workload's generated inputs and the CLI commands that use them."""

    workload: str
    seed: int
    inputs: gen.Inputs
    work: list[str]            # CLI arguments, outputs under out/work/
    setup: list[str]           # the same command with empty work
    outputs: list[str]         # file names the work command writes
    words: int                 # output words of one work invocation
    info: dict                 # input sizes, for the result record


def build_job(workload: str, seed: int, workdir: Path) -> Job:
    inputs = gen.generate(workload, seed)
    files = {k: str(v) for k, v in gen.write_inputs(inputs, workdir / "in").items()}
    out, setup_out = workdir / "out" / "work", workdir / "out" / "setup"
    out.mkdir(parents=True)
    setup_out.mkdir(parents=True)
    info = {"lexicon_entries": len(inputs.lexicon),
            "corpus_lines": len(inputs.corpus_lines),
            "secondary_lines": len(inputs.secondary_lines)}
    if workload == "ablate-lexicon":
        common = ["ablate", "--dict", files["dict"], "--corpus", files["corpus"],
                  "--seed", str(seed)]
        n = len(inputs.lexicon)
        return Job(workload, seed, inputs,
                   common + ["--sample-size", str(n), "--out", str(out / "ablation.tsv")],
                   common + ["--sample-size", "1", "--out", str(setup_out / "ablation.tsv")],
                   ["ablation.tsv"], n * len(METHODS), info)

    if workload == "annotate-zipf":
        resources = ["--dict", files["dict"], "--corpus", files["corpus"],
                     "--secondary", files["secondary"]]
    else:
        fake = [sys.executable, "-I", "-S", str(HERE / "fake_g2p.py")]
        resources = ["--dict", files["dict"], "--method", "ssp-dtw",
                     "--fallback-cmd", shlex.join(fake)]
    info.update(sentences=len(inputs.prompts), tokens=inputs.tokens,
                oov_tokens=inputs.oov_tokens,
                oov_share=round(inputs.oov_tokens / inputs.tokens, 4))

    def annotate(prompts, outdir):
        return (["annotate", prompts] + resources
                + ["--out", str(outdir / "annotations.tsv"),
                   "--report", str(outdir / "report.tsv")])

    return Job(workload, seed, inputs, annotate(files["prompts"], out),
               annotate(files["empty_prompts"], setup_out),
               ["annotations.tsv", "report.tsv"], inputs.tokens, info)


# -- output checks ----------------------------------------------------------------


def check_annotations(outdir: Path, expected: list[list[str]], prompt_ids) -> list[str]:
    """Row-level invariants that hold for any seed."""
    errors: list[str] = []
    lines = (outdir / "annotations.tsv").read_text(encoding="utf-8").split("\n")
    if lines[0] != ANNOTATION_HEADER or lines[-1] != "":
        return ["annotations.tsv: bad header or missing final newline"]
    rows = lines[1:-1]
    want = [(sid, str(i), w) for sid, words in zip(prompt_ids, expected)
            for i, w in enumerate(words)]
    if len(rows) != len(want):
        errors.append(f"annotations.tsv: {len(rows)} rows, expected {len(want)} "
                      "(normalized tokens of the prompts)")
    flag_counts: dict[str, int] = {}
    for n, (row, key) in enumerate(zip(rows, want), 2):
        f = row.split("\t")
        if len(f) != 9:
            errors.append(f"line {n}: {len(f)} columns")
        elif tuple(f[:3]) != key:
            errors.append(f"line {n}: token {tuple(f[:3])} != expected {key}")
        else:
            _, _, word, phones, phone_syl, text_syl, _, _, flags = f
            flag_set = set() if flags == "-" else set(flags.split(","))
            for fl in flag_set:
                flag_counts[fl] = flag_counts.get(fl, 0) + 1
            n_text = text_syl.count("|") + 1
            n_phone = 0 if phone_syl == "-" else phone_syl.count(" . ") + 1
            if text_syl.replace("|", "") != word:
                errors.append(f"line {n}: text syllables {text_syl!r} != {word!r}")
            if "-" not in (phones, phone_syl) and phone_syl.replace(" . ", " ") != phones:
                errors.append(f"line {n}: phone syllables {phone_syl!r} != {phones!r}")
            if ("count-mismatch" in flag_set) != (n_text != n_phone):
                errors.append(f"line {n}: count-mismatch flag vs {n_text}/{n_phone}")
        if len(errors) >= 10:
            break
    report = (outdir / "report.tsv").read_text(encoding="utf-8").split("\n")
    counted = {ln[2:].split("\t")[0]: int(ln.split("\t")[1])
               for ln in report if ln.startswith("# ") and "\t" in ln}
    if not errors and counted != flag_counts:
        errors.append(f"report.tsv flag counts {counted} != rows {flag_counts}")
    return errors


def check_ablation(outdir: Path, sample_size: int, seed: int) -> list[str]:
    lines = (outdir / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    head = f"# language_variant=CMU\tsample_size={sample_size}\tseed={seed}"
    if lines[:2] != [head, "method\taccuracy"]:
        return [f"ablation.tsv: bad header {lines[:2]}"]
    rows = dict(ln.split("\t") for ln in lines[2:])
    if tuple(rows) != METHODS:
        return [f"ablation.tsv: methods {tuple(rows)} != {METHODS}"]
    errors = []
    for method, acc in rows.items():
        try:
            ok = 0.0 <= float(acc) <= 100.0
        except ValueError:
            ok = False
        if not ok:
            errors.append(f"ablation.tsv: {method} accuracy {acc!r} not in [0, 100]")
    return errors


def check_outputs(job: Job, outdir: Path, setup: bool) -> list[str]:
    try:
        if job.workload == "ablate-lexicon":
            return check_ablation(outdir, 1 if setup else len(job.inputs.lexicon), job.seed)
        ids = [pid for pid, _ in job.inputs.prompts]
        return check_annotations(outdir, [] if setup else job.inputs.expected,
                                 [] if setup else ids)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def digests(job: Job, outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in job.outputs}


class Checker:
    """Counts attempted and failed operations, keeps the first errors."""

    def __init__(self, job: Job):
        self.job = job
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] | None = None

    def record(self, label: str, returncode: int, outdir: Path, setup: bool) -> bool:
        self.attempted += 1
        errors = ([f"exit code {returncode}"] if returncode != 0
                  else check_outputs(self.job, outdir, setup))
        if not errors and not setup:
            got = digests(self.job, outdir)
            if self.digests is None:
                self.digests = got
                errors = self._against_recorded(got)
            elif got != self.digests:
                errors = ["output differs from the first invocation of this run"]
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors[:3])
        return not errors

    def _against_recorded(self, got: dict[str, str]) -> list[str]:
        if self.job.seed != DEFAULT_SEED or not DIGESTS.exists():
            return []
        want = json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.job.workload)
        if want is not None and want != got:
            return [f"output digests {got} != recorded {want}"]
        return []


# -- end-to-end run ------------------------------------------------------------------


def run_cli(args: list[str], outdir: Path) -> tuple[int, float, float, float]:
    """Run the CLI in a fresh interpreter.

    Returns the exit code, wall seconds, CPU seconds and peak RSS in MB.
    """
    return run_child([sys.executable, "-S", "-c", _LAUNCH, str(SRC), *args], outdir)


def run_child(cmd: list[str], outdir: Path) -> tuple[int, float, float, float]:
    # os.wait4 blocks until exit: no polling delay in the wall time, and the
    # child's own rusage
    with open(outdir / "stdout.txt", "wb") as out, open(outdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=outdir, env=_CHILD_ENV)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def run_reference(workdir: Path) -> float:
    """CPU seconds of one reference invocation."""
    outdir = workdir / "reference"
    outdir.mkdir(exist_ok=True)
    code, _, cpu, _ = run_child([sys.executable, "-S", str(REFERENCE)], outdir)
    if code != 0:
        raise RuntimeError(f"reference job failed with exit code {code}")
    return cpu


def run_end_to_end(job: Job, seconds: float, workdir: Path, checker: Checker) -> dict:
    """Per-round samples, raw and scaled to reference speed."""
    work_dir, setup_dir = workdir / "out" / "work", workdir / "out" / "setup"
    # warm-up: byte-compile the sources and fill the page cache, untimed
    run_reference(workdir)
    code, *_ = run_cli(job.setup, setup_dir)
    checker.record("warm-up", code, setup_dir, setup=True)
    samples: dict[str, list[float]] = {m: [] for m in (*END_TO_END, *RAW)}
    ref = run_reference(workdir)
    samples["reference_s"].append(ref)
    start = time.perf_counter()
    round_s = 0.0
    # skip a last round that would end more than half a round past the budget
    while (len(samples["words_per_s"]) < MIN_SAMPLES
           or time.perf_counter() + round_s / 2 < start + seconds):
        t0 = time.perf_counter()
        code, setup_wall, setup_cpu, _ = run_cli(job.setup, setup_dir)
        setup_ok = checker.record("setup", code, setup_dir, setup=True)
        ref_mid = run_reference(workdir)
        code, work_wall, work_cpu, rss = run_cli(job.work, work_dir)
        work_ok = checker.record("work", code, work_dir, setup=False)
        ref_end = run_reference(workdir)
        samples["reference_s"] += [ref_mid, ref_end]
        # each measured invocation is scaled by the references around it; a
        # failed one is still timed, and ends the run as incorrect
        samples["wall_setup_s"].append(setup_wall)
        samples["setup_s"].append(setup_cpu * 2 * REFERENCE_S / (ref + ref_mid))
        samples["wall_words_per_s"].append(job.words / work_wall)
        samples["words_per_s"].append(
            job.words / work_cpu * (ref_mid + ref_end) / (2 * REFERENCE_S))
        samples["peak_rss_mb"].append(rss)
        if not (setup_ok and work_ok):
            break
        ref = ref_end
        round_s = time.perf_counter() - t0
    return samples


# -- traced run ------------------------------------------------------------------------


def run_in_process(args: list[str]) -> tuple[int, float]:
    from syllab import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(args)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    if code:
        sys.stderr.write(sink.getvalue()[-2000:])
    return code, wall


def run_traced(job: Job, seconds: float, workdir: Path, checker: Checker):
    import tracer

    work_dir = workdir / "out" / "work"
    counts: dict[str, float] | None = None
    samples: dict[str, list[float]] = {}
    notes: dict[str, str] = {}
    last = None
    start = time.perf_counter()
    pair = 0.0
    while not samples or time.perf_counter() + pair / 2 < start + seconds:
        t0 = time.perf_counter()
        code, plain_wall = run_in_process(job.work)
        checker.record("untraced", code, work_dir, setup=False)
        tr = tracer.Tracer()
        tr.install(tracer.TARGETS)
        try:
            code, traced_wall = run_in_process(job.work)
        finally:
            tr.uninstall()
        checker.record("traced", code, work_dir, setup=False)
        values, notes = tracer.layer_metrics(tr, traced_wall)
        values["trace.overhead_ratio"] = traced_wall / plain_wall
        these = {m: v for m, v in values.items() if m in tracer.COUNT_METRICS}
        if counts is None:
            counts = these
        elif these != counts:
            checker.failed += 1
            checker.errors.append(f"traced counts differ between runs: {these} != {counts}")
        for m, v in values.items():
            samples.setdefault(m, []).append(v)
        last = tr
        if checker.failed:
            break
        pair = time.perf_counter() - t0
    last.write_spans(workdir / "spans.tsv")
    return samples, notes


# -- reporting -------------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout's git repository, when there is one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    out = {}
    for name, values in samples.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2],
                     "n": len(values)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="syllab benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "syllab" / "cli.py", gen.FIXTURES / "mini_cmu.dict")
               if not p.is_file()]
    if missing:
        print(f"error: not a syllab checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    job = build_job(args.workload, args.seed, workdir)
    checker = Checker(job)
    if args.trace:
        import tracer

        samples, notes = run_traced(job, args.seconds, workdir, checker)
        units, sample_units = tracer.METRICS, tracer.METRICS
    else:
        samples, notes = run_end_to_end(job, args.seconds, workdir, checker), {}
        units, sample_units = END_TO_END, {**END_TO_END, **RAW}
    stats = summarize(samples)
    metrics = {m: {"value": stats[m]["median"], "unit": unit} for m, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs": job.info, "output_digests": checker.digests,
        "attempted": checker.attempted, "failed": checker.failed,
        "errors": checker.errors, "metrics": metrics, "samples": stats,
        "notes": notes,
        "inputs_note": "seeded synthetic inputs built from tests/data fixtures",
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                         encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={record['commit']}"
          f" python={record['python']} nproc={record['nproc']}")
    print(f"# inputs (synthetic, from tests/data fixtures): {json.dumps(job.info)}")
    print(f"# output digests: {json.dumps(checker.digests)}")
    for m, unit in sample_units.items():
        s = stats[m]
        note = f"\t{notes[m]}" if m in notes else ""
        print(f"{m}\t{s['median']:.6g}\t{unit}\tq1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}{note}")
    print(f"failed_share\t{checker.failed}/{checker.attempted}\toperations")
    for e in checker.errors[:20]:
        print(f"# check failed: {e}")
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

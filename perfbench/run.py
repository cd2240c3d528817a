#!/usr/bin/env python3
"""One-core benchmark of the user's whole job: train -> report -> errors.

    python3 perfbench/run.py --workload transcripts --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The benchmark pins itself to one CPU,
generates the workload's inputs from the seed (``perfbench/gen.py``),
starts one single-CPU Ray session, and runs the job in a closed loop, one
job after another, until ``--seconds`` are spent.  Every job reads a fresh
input of its own, so no timed job is served from a tokenizer cache that an
earlier job filled with the same lines.  Every job's outputs are checked
(see ``check``).  Times are wall times less the time the hypervisor stole
from the benchmark's CPU.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, medians over the run's jobs.
``--trace 1`` runs the jobs twice, in a plain Ray session and then in one
whose workers wrap each layer's entry points (``perfbench/tracing.py``),
and reports per-layer self times, counts and unit costs.

Everything else a run measured (every sample, raw wall times, per-phase
/proc/stat ticks of the CPU, the machine's allowed CPU count, the layer
table) goes to a side file under ``.perfbench/runs/``, so the
one-line summary stays short.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Rows per input, sized so one job takes 5-6 s on one core and a run of
# 24 s holds three to four jobs.
ROWS = {"transcripts": 28_000, "wide_vocab": 14_000, "unsorted": 28_000}
SORTED_INPUT = {"transcripts": True, "wide_vocab": True, "unsorted": False}
WARM_K = 1_000_000  # input number of the untimed warm-up job
PHASES = ("train", "report", "errors")
# BASELINE.md's warm-vocabulary tokenize cost, shown beside ours.
BASELINE_TOKENIZE_US = 3.70

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "train_s": "s",
    "report_s": "s",
    "errors_s": "s",
    "scoring_turns_per_s": "turns/s",
    "driver_peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}


def log(*parts) -> None:
    print("perfbench:", *parts, file=sys.stderr, flush=True)


# --- machine state ----------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_ticks() -> dict[str, int]:
    """/proc/stat ticks of the CPU this process runs on."""
    (cpu,) = os.sched_getaffinity(0)
    with open("/proc/stat") as f:
        for line in f:
            if line.startswith(f"cpu{cpu} "):
                fields = line.split()[1:9]
                break
    keys = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    return dict(zip(keys, map(int, fields)))


def tick_delta(a: dict, b: dict) -> dict[str, int]:
    return {k: b[k] - a[k] for k in a}


def stolen_s(a: dict, b: dict) -> float:
    """Seconds the hypervisor ran something else while our CPU had work."""
    return (b["steal"] - a["steal"]) / os.sysconf("SC_CLK_TCK")


def _proc_tree() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    return children


def descendants() -> list[int]:
    """PIDs of every process this process started, directly or not."""
    tree, out, todo = _proc_tree(), [], [os.getpid()]
    while todo:
        for c in tree.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def ray_workers() -> list[int]:
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            out.append(pid)
    return out


def reset_peak_rss(pids) -> None:
    """Restart the VmHWM high-water mark (Linux clear_refs value 5)."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


# --- Ray session ------------------------------------------------------------

# The job runs on one core, whatever the machine has: the driver, Ray's own
# processes and its one task slot share it.  Results do not depend on the
# core count, one task runs at a time, so spans of different workers never
# overlap, and the core's steal ticks can be taken out of every time.
NUM_CPUS = 1


def start_ray(trace_dir: str | None = None) -> None:
    import ray

    from logjuicer_ray.tuning import configure_data_context

    kwargs = dict(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                  logging_level="ERROR", log_to_driver=False,
                  object_store_memory=512 << 20)
    temp = WORK / "ray"
    # Ray's unix socket paths live under the temp dir and must stay short;
    # under a longer checkout path Ray uses its default temp dir, and
    # stop_ray removes the session's files from it.
    if len(str(temp)) <= 40:
        kwargs["_temp_dir"] = str(temp)
    if trace_dir:
        from perfbench import tracing

        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.tracing.install_worker",
            "env_vars": {tracing.TRACE_DIR_ENV: trace_dir},
        }
    ray.init(**kwargs)
    configure_data_context(NUM_CPUS)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    session_dir = Path(ray._private.worker._global_node.get_session_dir_path())
    started = [(pid, _start_time(pid)) for pid in descendants()]
    ray.shutdown()
    alive = _wait_gone(started, 20)
    for pid, _ in alive:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    _wait_gone(alive, 10)
    shutil.rmtree(session_dir, ignore_errors=True)  # logs of a finished session


def _wait_gone(procs: list[tuple], timeout: float) -> list[tuple]:
    deadline = time.monotonic() + timeout
    while True:
        alive = [(p, s) for p, s in procs if s is not None and _start_time(p) == s]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


def _start_time(pid: int) -> str | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else fields[19]


# --- the job ----------------------------------------------------------------

def run_job(path: str, sorted_input: bool) -> dict:
    """One train -> report -> errors job, timed per phase as the user sees
    it; returns the phase marks (monotonic ns), output counts and tables."""
    from logjuicer_ray.config import PipelineConfig
    from logjuicer_ray.pipelines.report import run_errors_report, run_report
    from logjuicer_ray.pipelines.train import train
    from logjuicer_ray.sources.transcripts import (
        ENGINE_COLUMNS, ERRORS_BLOCK_MIB, baseline_and_target, read_turns)

    cfg = PipelineConfig(sorted_input=sorted_input)
    base, target = baseline_and_target(path)
    marks, ticks = [time.monotonic_ns()], [cpu_ticks()]
    model = train(base, cfg)
    marks.append(time.monotonic_ns())
    ticks.append(cpu_ticks())
    out = run_report(target, model, cfg)
    counts = [out["anomalies"].count(), out["reports"].count()]
    marks.append(time.monotonic_ns())
    ticks.append(cpu_ticks())
    err = run_errors_report(
        read_turns(path, split="target", columns=ENGINE_COLUMNS, block_mib=ERRORS_BLOCK_MIB), cfg)
    counts.append(err["anomalies"].count())
    marks.append(time.monotonic_ns())
    ticks.append(cpu_ticks())
    return {"marks": marks, "ticks": ticks, "counts": counts,
            "datasets": (out["anomalies"], out["reports"], err["anomalies"])}


def to_table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def digest(anomalies, reports, errors) -> str:
    """sha256 of the three output tables in (conv_id, turn_idx) order."""
    h = hashlib.sha256()
    for table, keys in ((anomalies, ["conv_id", "turn_idx"]), (reports, ["conv_id"]),
                        (errors, ["conv_id", "turn_idx"])):
        table = table.sort_by([(k, "ascending") for k in keys])
        h.update(json.dumps(table.to_pylist(), default=str, sort_keys=True).encode())
    return h.hexdigest()


def check(job: dict, expected: dict, recorded: dict | None) -> tuple[str, list[str]]:
    """Compare one job's outputs with what the generator planted, and with
    the recorded counts and digest for this input when there are some."""
    anomalies, reports, errors = (to_table(ds) for ds in job["datasets"])

    def keys(t):
        return [[c, int(i)] for c, i in zip(t.column("conv_id").to_pylist(),
                                            t.column("turn_idx").to_pylist())]

    problems = []
    if sorted(keys(anomalies)) != expected["anomalies"]:
        problems.append("report anomalies differ from the planted ones")
    got_reports = dict(zip(reports.column("conv_id").to_pylist(),
                           reports.column("anomaly_count").to_pylist()))
    if got_reports != expected["reports"]:
        problems.append("per-conversation report counts differ from the planted ones")
    if sorted(keys(errors)) != expected["errors"]:
        problems.append("errors anomalies differ from the planted ones")
    if job["counts"] != [anomalies.num_rows, reports.num_rows, errors.num_rows]:
        problems.append("counted rows differ from collected rows")
    dig = digest(anomalies, reports, errors)
    if recorded is not None:
        if recorded["counts"] != job["counts"]:
            problems.append(f"counts {job['counts']} != recorded {recorded['counts']}")
        if recorded["digest"] != dig:
            problems.append("output digest differs from the recorded one")
    return dig, problems


# --- one run ----------------------------------------------------------------

class Run:
    def __init__(self, args):
        from perfbench import gen

        self.gen = gen
        self.workload = args.workload
        self.seed = args.seed
        self.rows = ROWS[args.workload]
        self.sorted_input = SORTED_INPUT[args.workload]
        self.cache = str(WORK / "inputs")
        self.recorded = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}

    def input(self, k: int):
        return self.gen.ensure_input(self.cache, self.workload, self.seed, k, self.rows)

    def record_key(self, k: int) -> str:
        return f"{self.workload}/{self.rows}/{self.seed}/{k}/{self.gen.version()}"

    def setup(self, k: int, trace_dir: str | None = None) -> float:
        """Start Ray, run the untimed warm-up job on a full-size input of
        its own (a smaller one leaves the first timed job slower), and make
        input ``k``; returns the seconds taken, less stolen time."""
        t0, ticks0 = time.monotonic(), cpu_ticks()
        start_ray(trace_dir)
        warm_path, _ = self.input(WARM_K)
        run_job(warm_path, self.sorted_input)
        self.input(k)
        return time.monotonic() - t0 - stolen_s(ticks0, cpu_ticks())

    def loop(self, seconds: float, on_job=None, k: int = 0) -> list[dict]:
        """Closed loop: run jobs on fresh inputs, from input ``k`` on, until
        the next one would end after ``seconds``; at least one job."""
        jobs: list[dict] = []
        t0 = time.monotonic()
        while True:
            t_job = time.monotonic()
            jobs.append(self.one_job(k, on_job))
            k += 1
            now = time.monotonic()
            if now - t0 + (now - t_job) > seconds:
                return jobs

    def one_job(self, k: int, on_job=None) -> dict:
        path, expected = self.input(k)
        workers = ray_workers()
        reset_peak_rss([os.getpid(), *workers])
        rec = {"k": k, "target_turns": expected["target_turns"]}
        try:
            job = run_job(path, self.sorted_input)
        except Exception:
            rec["error"] = traceback.format_exc()
            log(f"job {k} raised:\n{rec['error']}")
            return rec
        m, ticks = job["marks"], job["ticks"]
        for i, p in enumerate(PHASES):
            rec[f"{p}_wall_s"] = (m[i + 1] - m[i]) / 1e9
            rec[f"{p}_s"] = rec[f"{p}_wall_s"] - stolen_s(ticks[i], ticks[i + 1])
        rec["job_s"] = sum(rec[f"{p}_s"] for p in PHASES)
        rec["marks"] = m
        rec["ticks"] = {p: tick_delta(ticks[i], ticks[i + 1]) for i, p in enumerate(PHASES)}
        rec["driver_peak_rss_mb"] = peak_rss_mb(os.getpid())
        rec["worker_peak_rss_mb"] = max((peak_rss_mb(p) for p in set(workers + ray_workers())),
                                        default=0.0)
        rec["scoring_turns_per_s"] = 2 * expected["target_turns"] / (rec["report_s"] + rec["errors_s"])
        rec["counts"] = job["counts"]
        if on_job is not None:
            on_job(rec)
        rec["digest"], rec["problems"] = check(job, expected, self.recorded.get(self.record_key(k)))
        for p in rec["problems"]:
            log(f"job {k}: {p}")
        return rec


def ok(rec: dict) -> bool:
    return "error" not in rec and not rec["problems"]


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[dict], dict]:
    metrics = {"setup_s": run.setup(0)}
    jobs = run.loop(seconds)
    stop_ray()
    timed = [j for j in jobs if "job_s" in j]
    if timed:
        for name in END_TO_END_UNITS:
            if name != "setup_s":
                metrics[name] = statistics.median(j[name] for j in timed)
    return metrics, jobs, {}


def traced(run: Run, seconds: float) -> tuple[dict, list[dict], dict]:
    """Untraced jobs for half the time, then traced jobs in a new session
    on the inputs that follow, so that no job reuses an input; per-layer
    medians over the traced jobs."""
    from perfbench import tracing

    run.setup(0)
    plain = run.loop(seconds / 2)
    stop_ray()
    trace_dir = WORK / "trace" / f"{os.getpid()}-{time.time_ns()}"
    trace_dir.mkdir(parents=True)
    driver = tracing.Tracer()
    run.setup(len(plain), str(trace_dir))
    tracing.install_driver(driver)
    layer_rows = []

    def on_job(rec):
        spans = tracing.read_spans(str(trace_dir)) + driver.spans
        m = rec["marks"]
        phases = {p: tracing.phase_breakdown(spans, m[i], m[i + 1]) for i, p in enumerate(PHASES)}
        layer_rows.append(layer_metrics(phases, rec))
        rec["phases"] = phases

    traced_jobs = run.loop(seconds / 2, on_job=on_job, k=len(plain))
    stop_ray()
    plain_s = [j["job_s"] for j in plain if "job_s" in j]
    traced_s = [j["job_s"] for j in traced_jobs if "job_s" in j]
    metrics = {}
    if layer_rows:
        metrics = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        metrics["trace.max_sum_error"] = max(r["trace.max_sum_error"] for r in layer_rows)
    if plain_s and traced_s:
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return metrics, plain + traced_jobs, {"trace_dir": str(trace_dir)}


def layer_metrics(phases: dict, rec: dict) -> dict:
    """Per-layer metrics of one traced job."""
    def layer(name, phase_names=PHASES):
        return sum(phases[p]["layers"].get(name, 0.0) for p in phase_names)

    def count(span, key, phase_names=PHASES):
        return sum(phases[p]["counts"].get(span, {}).get(key, 0) for p in phase_names)

    def calls(span, phase_names=PHASES):
        return sum(phases[p]["calls"].get(span, 0) for p in phase_names)

    def span_self(span):
        return sum(phases[p]["names"].get(span, 0.0) for p in PHASES)

    out = {}
    tok_s, rows, uniq = layer("tokenize"), count("tokenize", "rows"), count("tokenize", "unique")
    out["tokenize.self_s"] = tok_s
    out["tokenize.rows"] = rows
    out["tokenize.unique_lines"] = uniq
    out["tokenize.unique_ratio"] = uniq / rows if rows else 0.0
    out["tokenize.cache_miss_ratio"] = count("tokenize", "new_cache") / uniq if uniq else 0.0
    out["tokenize.us_per_unique_line"] = tok_s / uniq * 1e6 if uniq else 0.0
    score_s, utok = layer("score"), count("distances", "unique")
    out["score.self_s"] = score_s
    out["score.rows"] = count("score_table", "rows")
    out["score.unique_tokens"] = utok
    out["score.pair_work"] = count("distances", "pairs")
    out["score.us_per_unique_token"] = score_s / utok * 1e6 if utok else 0.0
    dist_s, chunks = span_self("distances"), count("distances", "chunks")
    out["vectorize.distances_s"] = dist_s
    out["vectorize.gemm_chunks"] = chunks
    out["vectorize.us_per_gemm_chunk"] = dist_s / chunks * 1e6 if chunks else 0.0
    prep_in, prep_out = count("prepare", "rows_in"), count("prepare", "rows_out")
    out["train.prepare_s"] = layer("train.prepare")
    out["train.combine_ratio"] = prep_out / prep_in if prep_in else 0.0
    out["train.build_s"] = layer("train.build")
    out["train.index_rows"] = count("merge_group", "index_rows")
    out["train.merge_s"] = layer("train.merge")
    out["train.driver_s"] = layer("train.driver")
    scan_s = layer("scan", ("report",))
    convs = count("report.repair", "convs", ("report",))
    out["scan.self_s"] = scan_s
    out["scan.convs"] = convs
    out["scan.candidate_ratio"] = calls("scan.python", ("report",)) / convs if convs else 0.0
    out["scan.fragments"] = count("report.repair", "fragments", ("report",))
    out["scan.us_per_turn"] = scan_s / rec["target_turns"] * 1e6
    err_convs = count("report.repair", "convs", ("errors",))
    out["errors_scan.self_s"] = layer("errors_scan", ("errors",))
    out["errors_scan.candidate_ratio"] = (
        calls("errors_scan.python", ("errors",)) / err_convs if err_convs else 0.0)
    out["report.collect_s"] = layer("report.collect")
    out["report.repair_s"] = layer("report.repair")
    out["report.finish_s"] = layer("report.finish")
    out["report.scan_rows"] = count("report.collect", "rows")
    for p in PHASES:
        out[f"other.{p}_s"] = phases[p]["other_s"]
    out["trace.max_sum_error"] = max(
        abs(sum(phases[p]["layers"].values()) + phases[p]["other_s"] - phases[p]["wall_s"])
        / phases[p]["wall_s"] for p in PHASES)
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SORTED_INPUT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's output counts and digests in perfbench/expected.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    allowed_cpus = len(os.sched_getaffinity(0))
    if not (ROOT / "logjuicer_ray" / "__init__.py").is_file():
        log(f"no logjuicer_ray package under {ROOT}; run from the root of a checkout")
        return 2
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT))
    # Ray workers import the program and the tracing hook from the checkout.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    WORK.mkdir(exist_ok=True)
    run = Run(args)
    t0 = time.monotonic()
    if args.trace:
        metrics, jobs, extra = traced(run, args.seconds)
    else:
        metrics, jobs, extra = end_to_end(run, args.seconds)
    failed = sum(not ok(j) for j in jobs)
    if args.trace and metrics.get("trace.max_sum_error", 1.0) > 0.10:
        log("phase self times plus leftover are off the phase wall by more than 10%")
        failed = max(failed, 1)
    side = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rows": run.rows, "cpu": cpu, "allowed_cpus": allowed_cpus, "wall_s": time.monotonic() - t0,
            "metrics": metrics, "jobs": [{k: v for k, v in j.items() if k != "marks"} for j in jobs],
            **extra}
    runs_dir = WORK / "runs"
    runs_dir.mkdir(exist_ok=True)
    side_path = runs_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    side_path.write_text(json.dumps(side, indent=1, default=str))
    if args.record:
        record(run, jobs)
    if args.trace and "tokenize.us_per_unique_line" in metrics:
        log(f"tokenize {metrics['tokenize.us_per_unique_line']:.2f} us/unique line "
            f"(BASELINE.md warm: {BASELINE_TOKENIZE_US} us), "
            f"GEMM chunk {metrics['vectorize.us_per_gemm_chunk']:.1f} us, "
            f"scan {metrics['scan.us_per_turn']:.2f} us/turn")
    log(f"{len(jobs)} jobs, {failed} failed; samples in {side_path}")
    if not metrics:
        log("no job completed")
        return 1
    units = END_TO_END_UNITS if not args.trace else per_layer_units()
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    print(json.dumps(result), flush=True)
    return 0


def per_layer_units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def record(run: Run, jobs: list[dict]) -> None:
    rec = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    for j in jobs:
        if "digest" in j and not j["problems"]:
            rec[run.record_key(j["k"])] = {"counts": j["counts"], "digest": j["digest"]}
    EXPECTED_FILE.write_text(json.dumps(dict(sorted(rec.items())), indent=1) + "\n")


if __name__ == "__main__":
    # One string-hash seed for the benchmark and, through the environment
    # Ray starts them with, every worker: dict and set layouts then do not
    # change from run to run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())

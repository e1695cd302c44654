#!/usr/bin/env python3
"""serialcast benchmark: train, forecast and eval workloads with checked outputs.

    python3 perfbench/run.py --workload {train,forecast,eval} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src/``. Each
workload runs in its own process, so peak RSS is the workload's own. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
again with every public call into the program's modules wrapped in spans and
reports the per-layer metrics. ``--workload all`` runs the three workloads,
untraced and traced, as child processes and prints the tracing overhead.
Outputs are checked after the timed window. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # BLAS pinned to one thread before numpy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

WORKLOADS = ("train", "forecast", "eval")
SETUP_REPS = 3  # setup_s is the median of this many set-ups
ROUND_STEPS = 25  # training steps per run_pretrain call
# one rotation = three requests on one series: (name of its median latency, mode, horizon)
ROTATION = (("forecast_ms_p50.h40", "serial", 40), ("forecast_ms_p50.h160", "serial", 160),
            ("rolling_ms_p50.h160", "rolling", 160))
AFFINE_EVERY = 8  # rotations between affine-equivariance probes
GRAD_COORDS = 3  # finite-difference coordinates per parameter family
GRAD_SEED = 0

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _import_program():
    """Import serialcast from this checkout's src/ only, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "serialcast", "__init__.py")):
        sys.exit(f"error: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import serialcast

    if os.path.dirname(os.path.dirname(os.path.abspath(serialcast.__file__))) != SRC:
        sys.exit(f"error: serialcast imported from {serialcast.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _sub_seed(seed: int, *stream: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


class Run:
    """State of one workload run: timings, outcomes and problems found."""

    def __init__(self, name: str, seed: int, seconds: int, tracer, import_s: float):
        self.name, self.seed, self.seconds, self.tracer = name, seed, seconds, tracer
        self.import_s = import_s
        self.work = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.info: list[tuple[str, float, str]] = []  # extra lines for people
        self.n_ops = 0  # operations in the timed window, the per-layer base

    def setup(self, prepare):
        """Make the inputs SETUP_REPS times, each into a fresh directory; keep the last."""
        made, times = None, []
        for rep in range(SETUP_REPS):
            path = os.path.join(self.work, f"inputs{rep}")
            t0 = time.perf_counter()
            made = prepare(path)
            times.append(time.perf_counter() - t0)
            if rep + 1 < SETUP_REPS:
                shutil.rmtree(path)
        self.e2e["setup_s"] = self.import_s + statistics.median(times)
        return made

    def set_op(self, op: str):
        if self.tracer is not None:
            self.tracer.op = op


# -- train ----------------------------------------------------------------------


def workload_train(run: Run):
    import numpy as np

    import checks
    import inputs
    from serialcast import backbone, tokenizer, trainer
    from serialcast.objectives import default_grid

    manifest = run.setup(lambda path: inputs.make_corpus(run.seed, path))

    rounds = []  # (seconds, losses, skipped)
    last = None
    deadline = time.perf_counter() + run.seconds
    while not rounds or time.perf_counter() < deadline:
        run.set_op(f"round{len(rounds)}")
        tcfg = trainer.TrainConfig(stage="pretrain", steps=ROUND_STEPS,
                                   batch_size=inputs.TOY_BATCH,
                                   seed=_sub_seed(run.seed, len(rounds)),
                                   out_dir=os.path.join(run.work, "run"))
        # each round starts from a collected heap, as a fresh process would; graph
        # garbage left by the previous round would shift this round's memory peak
        gc.collect()
        t0 = time.perf_counter()
        last = trainer.run_pretrain(inputs.TOY_CFG, tcfg, manifest)
        rounds.append((time.perf_counter() - t0, [h.loss for h in last.history],
                       [h.skipped for h in last.history]))
    run.e2e["peak_rss_mb"] = _peak_rss_mb()
    steps = sum(len(r[1]) for r in rounds)
    run.attempted = steps
    run.failed = sum(sum(r[2]) for r in rounds)
    seconds = sum(r[0] for r in rounds)
    run.e2e["throughput_per_s"] = steps * inputs.TOY_BATCH / seconds
    run.info.append(("train_samples_per_s", run.e2e["throughput_per_s"], "windows/s"))
    run.info.append(("step_ms_mean", 1000.0 * seconds / steps, "ms"))
    run.info.append(("rounds", len(rounds), f"x {ROUND_STEPS} steps"))
    run.n_ops = steps
    yield  # timed window over; checks follow untraced

    for _dt, losses, skipped in rounds:
        run.problems.extend(checks.check_losses(losses, skipped))
    with open(last.checkpoint_path, "rb") as f:
        saved = f.read()
    params, state = trainer.load_checkpoint(last.checkpoint_path)
    resaved_path = last.checkpoint_path + ".resaved"
    trainer.save_checkpoint(params, state, resaved_path)
    with open(resaved_path, "rb") as f:
        resaved = f.read()
    trained = {k: p.data for k, p in last.params.items()}
    loaded = {k: p.data for k, p in params.items()}
    run.problems.extend(checks.check_checkpoint(saved, resaved, trained, loaded))

    # gradient check on the tiny 64-bit config, independent of --seed
    tiny = backbone.ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=2,
                                n_serial_blocks=2, n_experts=4, top_k=2, n_heads=1, n_quantiles=3)
    tparams = backbone.init_params(tiny, seed=GRAD_SEED, dtype=np.float64)
    rng = np.random.default_rng(GRAD_SEED)
    window = (tiny.n_max + tiny.n_serial_blocks + 1) * tiny.patch_len
    windows = rng.normal(size=(2, window)).cumsum(1)
    batch = tokenizer.make_supervised_batch(windows, tiny.n_max, tiny.patch_len)
    grid = default_grid(tiny.n_quantiles)

    def loss():
        fwd = backbone.model_forward(batch, tparams, tiny, depth=tiny.n_serial_blocks)
        return trainer.stage_loss("pretrain", fwd, batch, tparams, tiny, grid)[0]

    loss().backward()
    grads = {k: p.grad for k, p in tparams.items()}
    coords, families = checks.pick_coords(grads, GRAD_COORDS, rng)
    numeric = checks.central_differences(lambda: float(loss().data),
                                         {k: p.data for k, p in tparams.items()}, coords)
    analytic = [float(grads[name].reshape(-1)[i]) for name, i in coords]
    run.problems.extend(checks.check_gradients(analytic, numeric, coords))
    run.info.append(("gradcheck_coords", len(coords), f"over {len(families)} families"))


# -- forecast -------------------------------------------------------------------


def _load_model(path: str):
    import inputs
    from serialcast import trainer

    params, _ = trainer.load_checkpoint(path)
    trainer.validate_params(params, inputs.TOY_CFG)
    return params


def workload_forecast(run: Run):
    import numpy as np

    import checks
    import inputs
    from serialcast import inference

    def prepare(path):
        return _load_model(inputs.make_checkpoint(path)), inputs.forecast_pool(run.seed)

    params, pool = run.setup(prepare)
    cfg = inputs.TOY_CFG

    latencies = {name: [] for name, _, _ in ROTATION}
    all_ms = []
    results = []  # per rotation: (series index, [dist, dist, dist])
    deadline = time.perf_counter() + run.seconds
    while not results or time.perf_counter() < deadline:
        i = len(results) % len(pool)
        dists = []
        for name, mode, horizon in ROTATION:
            run.set_op(f"request{run.attempted}")
            fn = inference.forecast if mode == "serial" else inference.forecast_rolling_ntp
            t0 = time.perf_counter()
            dists.append(fn(pool[i], horizon, params, cfg))
            ms = 1000.0 * (time.perf_counter() - t0)
            latencies[name].append(ms)
            all_ms.append(ms)
            run.attempted += 1
        results.append((i, dists))
    run.e2e["peak_rss_mb"] = _peak_rss_mb()
    run.e2e["throughput_per_s"] = 1000.0 * len(all_ms) / sum(all_ms)
    for name, values in latencies.items():
        run.info.append((name, statistics.median(values), "ms"))
    h40 = latencies["forecast_ms_p50.h40"]
    if len(h40) >= 200:  # at least ten samples beyond the 95th percentile
        run.info.append(("forecast_ms_p95.h40", float(np.percentile(h40, 95)), "ms"))
    run.info.append(("requests", len(all_ms), "closed loop, one client, batch 1"))
    run.n_ops = len(all_ms)
    yield

    rng = np.random.default_rng(_sub_seed(run.seed, 99))
    for r, (i, dists) in enumerate(results):
        run.problems.extend(checks.check_rotation(
            *(d.values for d in dists), [d.passes for d in dists], ROTATION[0][2],
            ROTATION[1][2], cfg.n_quantiles, cfg.patch_len, cfg.n_serial_blocks))
        if r % AFFINE_EVERY == 0:
            a, b = float(rng.uniform(0.1, 20.0)), float(rng.uniform(-50.0, 50.0))
            moved = inference.forecast(a * pool[i] + b, ROTATION[0][2], params, cfg)
            run.problems.extend(checks.check_affine(dists[0].values, moved.values, a, b,
                                                    float(np.std(pool[i]))))


# -- eval -----------------------------------------------------------------------


def workload_eval(run: Run):
    import numpy as np

    import checks
    import inputs
    from serialcast import cli, inference

    horizon = inputs.EVAL_HORIZON

    def prepare(path):
        ckpt = inputs.make_checkpoint(path)
        config = os.path.join(path, "model.cfg")
        inputs.write_config(config, inputs.TOY_CFG)
        series = inputs.eval_series(run.seed)
        return ckpt, config, series, inputs.write_csvs(path, series)

    ckpt, config, series, csvs = run.setup(prepare)
    argv = ["eval", "--checkpoint", ckpt, "--config", config, "--input", *csvs,
            "--horizon", str(horizon), "--mode", "serial"]

    calls = []  # (exit code, stdout, seconds)
    deadline = time.perf_counter() + run.seconds
    while not calls or time.perf_counter() < deadline:
        run.set_op(f"call{len(calls)}")
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        calls.append((code, out.getvalue(), time.perf_counter() - t0))
    run.e2e["peak_rss_mb"] = _peak_rss_mb()
    run.attempted = len(calls)
    run.failed = sum(1 for code, _, _ in calls if code != 0)
    run.e2e["throughput_per_s"] = len(calls) * len(csvs) / sum(dt for _, _, dt in calls)
    run.info.append(("eval_series_per_s", run.e2e["throughput_per_s"], "series/s"))
    run.info.append(("call_ms_p50", statistics.median(1000.0 * dt for _, _, dt in calls), "ms"))
    run.n_ops = len(calls)
    yield

    params = _load_model(ckpt)
    cfg = inputs.TOY_CFG
    mases, crps = [], []
    for x in series:
        context, actual = x[:-horizon], x[-horizon:]
        dist = inference.forecast(context, horizon, params, cfg)
        mases.append(checks.mase_ref(dist.median, actual, context))
        crps.append(checks.wql_mean_ref(dist.values, dist.levels.levels, actual))
    n = len(series)
    want_serial = n * checks.serial_passes(horizon, cfg.patch_len, cfg.n_serial_blocks)
    want_rolling = n * checks.rolling_passes(horizon, cfg.patch_len)
    mase, crps_wql = float(np.mean(mases)), float(np.mean(crps))
    for code, text, _dt in calls:
        run.problems.extend(checks.check_eval(code, checks.parse_report(text), mase, crps_wql,
                                              want_serial, want_rolling))


# Each workload is a generator: it sets up, runs its timed window, yields once
# (the traced run stops tracing there), then checks its outputs.
RUNNERS = {"train": workload_train, "forecast": workload_forecast, "eval": workload_eval}


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import_s = time.perf_counter() - START
    tracer = None
    if traced:
        from tracing import Tracer, instrumented

        tracer = Tracer()
    run = Run(name, seed, seconds, tracer, import_s)
    try:
        steps = RUNNERS[name](run)
        if tracer is None:
            next(steps)
        else:
            with instrumented(tracer):
                next(steps)
            tracer.dump(os.path.join(WORK, f"trace_{name}.json"))
        for _ in steps:
            pass
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    if traced:
        metrics, units = tracer.layer_metrics(run.n_ops), LAYER_UNITS
        run.info.append(("traced_throughput_per_s", run.e2e["throughput_per_s"], "1/s"))
    else:
        metrics, units = run.e2e, E2E_UNITS
    for key, value, unit in run.info:
        print(f"{name:9s} {key:28s} {value:14.4f} {unit}")
    for key in units:
        print(f"{name:9s} {key:28s} {metrics[key]:14.4f} {units[key]}")
    print(f"{name:9s} attempted {run.attempted} failed {run.failed}")
    for problem in run.problems[:20]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in its own child process."""
    results, code = {}, 0
    for name in WORKLOADS:
        for traced in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(traced)], capture_output=True, text=True,
                                  cwd=ROOT, timeout=600)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                code = 1
                continue
            results[(name, traced)] = json.loads(lines[-1])
            plain = results.get((name, 0))
            if traced and plain:
                base = plain["metrics"]["throughput_per_s"]["value"]
                traced_tp = next(float(l.split()[2]) for l in lines
                                 if l.split()[1:2] == ["traced_throughput_per_s"])
                overhead = 100.0 * (base / traced_tp - 1.0)
                print(f"{name:9s} {'tracing_overhead':28s} {overhead:14.1f} %")
    summary = {f"{n}{'.traced' if t else ''}": r for (n, t), r in results.items()}
    correct = len(results) == 2 * len(WORKLOADS) and all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    _import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

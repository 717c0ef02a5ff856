"""Layer probes: fixed, bounded calls into each module's public functions.

Every traced run measures the same probes, whatever its workload, so each
layer metric exists in every traced run and compares across commits.  Each
probe also checks what it computed against values taken at commit 1259363.

The kernel race of benchmarks/bench_sweep.py is repeated here: the active
sweep kernel decodes the first patterns of every weight 1..8 of the 4x4
codestruct, and when the compiled extension imports, the pure kernel runs
the same slices and both tallies must agree.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from time import perf_counter

import tracing
import workloads

# Each kernel slice decodes at least this many patterns (repeating small weights).
KERNEL_SLICE = 40_000
# (corrected, detected) of the first min(C(28,e), KERNEL_SLICE) 4x4 codestruct
# patterns of weight e under the mirror injector, from the pure kernel at 1259363.
KERNEL_SLICE_TALLY = {1: (28, 28), 2: (378, 378), 3: (650, 3276), 4: (1011, 20475),
                      5: (126, 39994), 6: (0, 39975), 7: (0, 39996), 8: (0, 39987)}
POOL_PROBE_TALLY = [(28, 28), (378, 378), (650, 3276)]
CODEC_PROBE_WORDS = 300


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def codec_probe(code, seed: int, metrics: dict, problems: list) -> int:
    """encode and decode us per word for each builtin code; to_hex+from_hex us."""
    rng = random.Random(seed)
    hex_times = []
    for name in code.BUILTIN_NAMES:
        cfg = code.builtin_config(name)
        batch = workloads.codec_batch(rng, [cfg], CODEC_PROBE_WORDS)
        datas = [b[1] for b in batch]
        words = [code.encode(cfg, d) for d in datas]
        stored = [w.to_hex() for w in words]
        corrupted = [code.Codestruct.from_hex(format(int(h, 16) ^ b[3], f"0{len(h)}x"),
                                              cfg.m, cfg.k)
                     for h, b in zip(stored, batch)]
        outs = []

        def enc():
            for d in datas:
                code.encode(cfg, d)

        def dec():
            outs[:] = [code.decode(cfg, cs) for cs in corrupted]

        def hexes():
            for w, h in zip(words, stored):
                w.to_hex()
                code.Codestruct.from_hex(h, cfg.m, cfg.k)

        metrics[f"code.encode_us.{name}"] = (_median_time(enc, 3) / len(batch) * 1e6, "us")
        metrics[f"code.decode_us.{name}"] = (_median_time(dec, 3) / len(batch) * 1e6, "us")
        hex_times.append(_median_time(hexes, 3) / len(batch) * 1e6)
        for (_cfg, data, weight, _mask), out in zip(batch, outs):
            problem = workloads.codec_problem(data, weight, out)
            if problem:
                problems.append(f"codec probe {name}: {problem}")
    metrics["code.hex_us"] = (statistics.mean(hex_times), "us")
    return len(code.BUILTIN_NAMES) * CODEC_PROBE_WORDS


def table_probes(code, injection, metrics: dict) -> None:
    cfgs = [code.builtin_config(n) for n in code.BUILTIN_NAMES]
    cold = getattr(code.build_double_error_table, "__wrapped__", code.build_double_error_table)
    metrics["code.double_table_ms"] = (
        _median_time(lambda: [cold(c) for c in cfgs], 5) * 1e3, "ms")
    metrics["injection.tables_ms"] = (
        _median_time(lambda: [injection.build_sweep_tables(c) for c in cfgs], 5) * 1e3, "ms")


def pool_probe(code, injection, metrics: dict, problems: list) -> int:
    """sweep() self time and pool waiting for 4x4 codestruct 1..3 with 2 workers."""
    cfg = code.builtin_config("4x4")
    call, pool = [], []
    for _ in range(3):
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            reports = injection.sweep(cfg, injection.Region.CODESTRUCT, 1, 3, workers=2)
        finally:
            uninstall()
        by_name = tracing.summarize(tracer.records())["self_by_name"]
        call.append(by_name.get("injection.sweep", 0.0))
        pool.append(by_name.get("injection.pool", 0.0))
        if [(r.corrected, r.detected) for r in reports] != POOL_PROBE_TALLY:
            problems.append("pool probe: 4x4 codestruct 1..3 tallies differ from golden")
    metrics["injection.call_ms"] = (statistics.median(call) * 1e3, "ms")
    metrics["injection.pool_ms"] = (statistics.median(pool) * 1e3, "ms")
    return 3


def _kernel_slice(kernel, tables, cfg, e: int, diff_field: int) -> tuple:
    count = min(math.comb(cfg.n, e), KERNEL_SLICE)
    reps = -(-KERNEL_SLICE // count)
    t0 = perf_counter()
    for _ in range(reps):
        tally = kernel.sweep_chunk(
            tables["full_o"], tables["full_i"], tables["inv_flip_o"], tables["inv_flip_i"],
            tables["dtab"], tables["m"], tables["k"], e, list(range(e)), count, cfg.n,
            1, diff_field, tables["profile"])
    return count * reps / (perf_counter() - t0), tuple(tally)


def kernel_race(code, injection, metrics: dict, problems: list, extra: dict) -> int:
    """Patterns/s per weight for the active kernel; both kernels when compiled imports."""
    from overlap_ecc import _sweep_py
    try:
        from overlap_ecc import _speedups
    except ImportError:
        _speedups = None
    cfg = code.builtin_config("4x4")
    tables = injection.build_sweep_tables(cfg)
    diff_field = injection.payload_diff_field(cfg, code.encode(cfg, (0,) * cfg.m))
    kernels = {injection.active_kernel(): injection._kernel}
    if _speedups is not None:
        kernels.update(pure=_sweep_py, compiled=_speedups)
    attempted = 0
    for e in range(1, 9):
        tallies = {}
        for engine, kernel in kernels.items():
            rate, tallies[engine] = _kernel_slice(kernel, tables, cfg, e, diff_field)
            if len(kernels) > 1:
                extra[f"patterns_per_s.{engine}.w{e}"] = (rate, "1/s")
            if kernel is injection._kernel:
                metrics[f"injection.patterns_per_s.w{e}"] = (rate, "1/s")
        attempted += len(tallies)
        for engine, tally in tallies.items():
            if tally != KERNEL_SLICE_TALLY[e]:
                problems.append(f"kernel race: {engine} weight {e} tally {tally} "
                                f"!= golden {KERNEL_SLICE_TALLY[e]}")
    return attempted


def search_probes(search, metrics: dict, problems: list) -> int:
    states = 0
    solve_s = 0.0
    validate_s = 0.0
    for (m, k, seed), (_sha256, want_states) in workloads.SEARCH_PROBLEMS.items():
        t0 = perf_counter()
        res = search.search_assignment(m, k=k, seed=seed)
        dt = perf_counter() - t0
        metrics[f"search.solve_ms.{m}-{k}-{seed}"] = (dt * 1e3, "ms")
        solve_s += dt
        states += res.explored
        t0 = perf_counter()
        ok = search.validate_assignment(res.outer, res.inner).ok
        validate_s += perf_counter() - t0
        if res.explored != want_states or not ok:
            problems.append(f"search probe {m}-{k}-{seed}: {res.explored} states "
                            f"(golden {want_states}), valid={ok}")
    metrics["search.states"] = (states, "count")
    metrics["search.states_per_s"] = (states / solve_s, "1/s")
    metrics["search.validate_ms"] = (validate_s * 1e3, "ms")
    return len(workloads.SEARCH_PROBLEMS)


def model_probes(reliability, scalability, manifest, version: str,
                 metrics: dict, problems: list) -> int:
    params = reliability.code_params("4x4")
    t0 = perf_counter()
    curve = reliability.reliability_curve(params, 20000.0, 1.0)
    metrics["reliability.curve_ms"] = ((perf_counter() - t0) * 1e3, "ms")
    text = reliability.curve_to_csv(curve)
    if _sha(text) != workloads.RELIABILITY_4X4_SHA:
        problems.append("reliability probe: curve CSV differs from golden")

    rows = []
    metrics["scalability.compare_ms"] = (_median_time(
        lambda: rows.__setitem__(slice(None), scalability.compare(7)), 5) * 1e3, "ms")
    if _sha(scalability.comparison_to_csv(rows)) != workloads.SCALABILITY_7_SHA:
        problems.append("scalability probe: comparison CSV differs from golden")

    emitted = []

    def emit():
        man = manifest.RunManifest(command="reliability", arguments=(), version=version,
                                   outputs={"stdout": manifest.sha256_text(text)})
        emitted[:] = [man.to_json()]
    metrics["manifest.emit_ms"] = (_median_time(emit, 20) * 1e3, "ms")
    if f'"stdout": "{workloads.RELIABILITY_4X4_SHA}"' not in emitted[0]:
        problems.append("manifest probe: outputs hash differs from golden")
    return 3


def run_probes(seed: int) -> tuple:
    """(metrics, problems, attempted, extra) over every layer probe.

    metrics and extra map a name to (value, unit).
    """
    import overlap_ecc
    from overlap_ecc import code, injection, manifest, reliability, scalability, search

    metrics, problems, extra = {}, [], {}
    attempted = codec_probe(code, seed, metrics, problems)
    table_probes(code, injection, metrics)
    attempted += pool_probe(code, injection, metrics, problems)
    attempted += kernel_race(code, injection, metrics, problems, extra)
    attempted += search_probes(search, metrics, problems)
    attempted += model_probes(reliability, scalability, manifest, overlap_ecc.__version__,
                              metrics, problems)
    return metrics, problems, attempted, extra

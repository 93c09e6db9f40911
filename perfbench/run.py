#!/usr/bin/env python3
"""End-to-end benchmark of the SuperSim reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--short]

Run from the root of a source checkout. The first call builds the
simulator library and the `perfbench` driver with CMake into
$CARGO_TARGET_DIR (default .bench_build), then every call:

  1. writes the workload's config with simulator.seed = N,
  2. runs perfbench on it: for --trace 0, one check run, then whole
     runs until S seconds have passed, each in a process of its own; for
     --trace 1, one trace process,
  3. checks the outputs with checks.py, apart from the program,
  4. prints the metrics as the last line of standard output:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts the messages the workload's terminals sent and `failed`
those never delivered. --short shrinks every workload to a fraction of a
second of simulation (the tests in test_checks.py use it). The raw
report, the result line and the Chrome trace of each run are kept under
$CARGO_TARGET_DIR/perfbench/runs/.

All times are host seconds measured inside the perfbench processes; see
README.md for how they are kept steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

WORKLOADS = {
    "clos_oq_1flit": {
        "exact_hops": True, "open_loop": True, "collective": False,
        "short": {"workload.applications.0.warmup_duration": 1000,
                  "workload.applications.0.sample_duration": 1000},
    },
    "torus16_iq_8flit_t4": {
        "exact_hops": True, "open_loop": True, "collective": False,
        "short": {"workload.applications.0.warmup_duration": 500,
                  "workload.applications.0.num_samples": 10},
    },
    "torus_faults_collective": {
        "exact_hops": False, "open_loop": False, "collective": True,
        "short": {"workload.applications.0.iterations": 3,
                  "workload.applications.1.warmup_duration": 500,
                  "workload.applications.1.num_samples": 100},
    },
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    source = os.path.join(os.path.dirname(HERE), "src", "sim", "builder.h")
    if not os.path.exists(source):
        sys.exit("perfbench: simulator sources not found; run from the "
                 "root of a source checkout")
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4"], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def set_path(config, dotted, value):
    node = config
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[keys[-1]] = value


def make_config(name, seed, short):
    with open(os.path.join(HERE, "workloads", name + ".json")) as f:
        config = json.load(f)
    config["simulator"]["seed"] = seed
    if short:
        for dotted, value in WORKLOADS[name]["short"].items():
            set_path(config, dotted, value)
    return config


def run_stem(name, seed, short):
    """Path prefix of one run's files: config, report, trace, result."""
    runs = os.path.join(build_dir(), "perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    return os.path.join(runs, f"{name}-seed{seed}{'-short' if short else ''}")


def perfbench(binary, mode, config_path, report_path, *args):
    """Runs one perfbench process; returns its report."""
    subprocess.run([binary, mode, config_path, "--report", report_path,
                    *args], check=True, stdout=sys.stderr)
    with open(report_path) as f:
        return json.load(f)


def run_perfbench(binary, name, seed, seconds, trace, short):
    """Runs perfbench on the seeded config; returns (config, report).

    A traced run is one `trace` process. A measure run starts one `run
    --check` process for the checks, then one `run` process per whole run
    until `seconds` have passed; the report gathers the measured runs'
    figures and the check process's material.
    """
    start = time.monotonic()
    stem = run_stem(name, seed, short)
    config = make_config(name, seed, short)
    config_path = stem + ".config.json"
    with open(config_path, "w") as f:
        json.dump(config, f, indent=1)
    if trace:
        return config, perfbench(binary, "trace", config_path,
                                 stem + ".trace.report.json", "--trace-file",
                                 stem + ".chrome-trace.json")
    checked = perfbench(binary, "run", config_path,
                        stem + ".check.report.json", "--check")
    runs = []
    while not runs or time.monotonic() - start < seconds:
        runs.append(perfbench(binary, "run", config_path,
                              stem + ".run.report.json"))
    report = {
        "checks": checked["checks"],
        "results": [checked["result"]] + [r["result"] for r in runs],
        "reps": [r["times"] for r in runs],
        "cold_setups_s": [r["cold_setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "flit_hops": runs[0]["flit_hops"],
        "messages_sent": sum(r["messages_sent"] for r in [checked, *runs]),
        "messages_in_flight": sum(r["messages_in_flight"]
                                  for r in [checked, *runs]),
    }
    if "identity_result" in checked:
        report["identity_result"] = checked["identity_result"]
    with open(stem + ".report.json", "w") as f:
        json.dump(report, f)
    return config, report


def end_to_end_metrics(report):
    """Medians over the measured runs, each in a process of its own, so
    every set-up is cold. setup_s is the lower quartile of the cold
    set-ups instead: a set-up takes milliseconds, and host phases that
    slow a whole stretch of runs move its median by up to 40% between
    runs (README.md, "Bounds")."""
    reps = report["reps"]
    setups = report["cold_setups_s"]

    def median_of(key):
        return statistics.median(r[key] for r in reps)

    run_s = median_of("run_s")
    return {
        "setup_s": (statistics.quantiles(setups, n=4,
                                         method="inclusive")[0]
                    if len(setups) > 1 else setups[0]),
        "run_s": run_s,
        "wall_s": median_of("wall_s"),
        "cpu_s": median_of("cpu_s"),
        "flit_hops_per_s": report["flit_hops"] / run_s,
        "peak_rss_mb": statistics.median(report["peak_rss_mb"]),
    }


def per_layer_metrics(report):
    c = report["checks"]
    layers = report["layers"]
    sweep = report["sweep"]
    traced = report["traced"]
    power = layers["power"]
    res = c["resilience"]
    hops = c["flit_hops"]
    return {
        "core.events": c["events"],
        "core.events_per_flit_hop": c["events"] / hops,
        "core.events_per_tick": c["events"] / c["end_tick"],
        "core.peak_queue_depth": c["peak_queue_depth"],
        "core.event_ns": layers["core.event_ns"],
        "core.run_s_t1": sweep["t1"]["run_s"],
        "core.run_s_t2": sweep["t2"]["run_s"],
        "core.speedup_t4": sweep["t1"]["run_s"] / sweep["t4"]["run_s"],
        "core.partitioned_p1_run_s": sweep["p1"]["run_s"],
        "topology.partitions": sweep["t4"]["partitions"],
        "network.flit_hops": hops,
        "network.credits": c["credits"],
        "routing.route_ns": layers["routing.route_ns"],
        "congestion.query_ns": layers["congestion.query_ns"],
        "arbiter.arbitrate_ns": layers["arbiter.arbitrate_ns"],
        "traffic.next_dest_ns": layers["traffic.next_dest_ns"],
        "router.buffer_writes_per_flit_hop":
            power["router_buffer_writes"] / power["channel_flits"],
        "router.arbitrations_per_flit_hop":
            power["router_arbitrations"] / power["channel_flits"],
        "stats.samples": c["samples"],
        "stats.summarize_s": traced["summarize_s"],
        "json.load_s": traced["load_s"],
        "sim.build_s": traced["build_s"],
        "sim.to_json_s": traced["to_json_s"],
        "sim.teardown_s": traced["teardown_s"],
        "power.report_s": layers["power.report_s"],
        "fault.flips": res["injected"] + res["completed"],
        "fault.recoveries": res["recovered"],
        "collective.completions": len(c["collective_records"]),
        "trace.traced_wall_s": traced["wall_s"],
        "trace.untraced_wall_s": report["untraced"]["wall_s"],
    }


def metric_units(trace):
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args()

    binary = build()
    config, report = run_perfbench(binary, args.workload, args.seed,
                                   args.seconds, args.trace, args.short)
    fails = checks.run_checks(WORKLOADS[args.workload], config, report)
    for fail in fails:
        log("CHECK FAILED:", fail)

    values = (per_layer_metrics(report) if args.trace
              else end_to_end_metrics(report))
    units = metric_units(args.trace)
    if set(values) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                 "differ from BENCHMARK.json")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    for name, m in metrics.items():
        log(f"{name:36s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not fails,
        "attempted": report["messages_sent"],
        "failed": report["messages_in_flight"],
        "metrics": metrics,
    }
    line = json.dumps(result)
    stem = run_stem(args.workload, args.seed, args.short)
    with open(f"{stem}{'.trace' if args.trace else ''}.result.json",
              "w") as f:
        f.write(line + "\n")
    print(line)


if __name__ == "__main__":
    main()

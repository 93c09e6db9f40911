"""Correctness checks on one benchmark run, computed apart from the program.

Every expected value here comes from the workload's config and the
topology's coordinates: minimal router distances, zero-load latency
bounds, the offered load, the mean hop count of uniform random traffic and
the ring all-reduce's flit count and alpha-beta bound. None of them calls
into the simulator (its `minHops`, for one, is not used). The program's
outputs checked against them are the raw report perfbench writes:
interface flit counters, terminal message counts, sampled messages
aggregated per (source, destination, size), collective records, the
resilience ledger and the result JSON of every run.

Each check returns a list of failure messages; an empty list is a pass.
"""

import math


def router_distance(network, src, dst):
    """Routers a minimal route from terminal src to terminal dst traverses.

    Torus: routers are numbered with dimension 0 fastest and terminal t sits
    on router t // concentration; each dimension adds its ring distance.
    Folded Clos: terminals t1, t2 share a level-l subtree when
    t1 // k**l == t2 // k**l (k = half radix); a route climbs to the lowest
    shared level l and back down, through 2l - 1 routers.
    """
    topology = network["topology"]
    if topology == "torus":
        conc = network.get("concentration", 1)
        a, b = src // conc, dst // conc
        hops = 1
        for width in network["widths"]:
            delta = abs(a % width - b % width)
            hops += min(delta, width - delta)
            a //= width
            b //= width
        return hops
    if topology == "folded_clos":
        k = network["half_radix"]
        for level in range(1, network["levels"] + 1):
            if src // k**level == dst // k**level:
                return 2 * level - 1
        raise ValueError("terminals share no Clos subtree")
    raise ValueError(f"no distance model for topology {topology!r}")


def num_terminals(network):
    if network["topology"] == "torus":
        return math.prod(network["widths"]) * network.get("concentration", 1)
    if network["topology"] == "folded_clos":
        return network["half_radix"] ** network["levels"]
    raise ValueError(f"no terminal count for {network['topology']!r}")


def router_latency(network):
    """Fewest ticks a flit spends inside one router at zero load."""
    router = network["router"]
    if router["architecture"] == "output_queued":
        return router.get("core_latency", 1)
    return router.get("crossbar_latency", 1)


def zero_load_latency(network, hops, flits):
    """Create-to-delivery lower bound for a message of `flits` flits that
    crosses `hops` routers: two terminal links, hops - 1 router links, the
    routers' pipelines and the tail's serialization."""
    return (2 * network.get("terminal_latency", 1)
            + (hops - 1) * network.get("channel_latency", 1)
            + hops * router_latency(network)
            + (flits - 1) * network.get("clock_period", 1))


def uniform_hops(network):
    """Mean and standard deviation of the minimal router distance over all
    (source, destination != source) pairs: uniform random traffic."""
    n = num_terminals(network)
    values = [router_distance(network, s, d)
              for s in range(n) for d in range(n) if d != s]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def blast_apps(config):
    return [(i, app) for i, app in enumerate(
        config["workload"]["applications"]) if app["type"] == "blast"]


def check_conservation(config, report):
    """Flits in equal flits out, nothing left in flight, no saturation, and
    every application's messages all arrived."""
    c = report["checks"]
    fails = []
    injected = sum(c["flits_injected"])
    ejected = sum(c["flits_ejected"])
    if injected != ejected:
        fails.append(f"flits injected {injected} != flits ejected {ejected}")
    if c["messages_in_flight"] != 0:
        fails.append(f"{c['messages_in_flight']} messages still in flight")
    if c["saturated"]:
        fails.append("run hit its time limit (saturated)")
    for i, app in enumerate(c["apps"]):
        if app["sent"] != app["received"]:
            fails.append(f"app {i}: sent {app['sent']} messages, "
                         f"received {app['received']}")
    if ejected == 0:
        fails.append("no flits delivered")
    return fails


def check_samples(config, report, exact_hops):
    """Per sampled message: hops >= the minimal router distance (== under
    deterministic minimal routing) and latency >= the zero-load bound."""
    network = config["network"]
    c = report["checks"]
    fails = []
    if c["samples"] == 0 or not c["sample_pairs"]:
        return ["no sampled messages"]
    counted = 0
    for src, dst, flits, count, min_h, max_h, _, min_lat in c["sample_pairs"]:
        counted += count
        dist = router_distance(network, src, dst)
        if min_h < dist:
            fails.append(f"{src}->{dst}: {min_h} hops < minimal {dist}")
        if exact_hops and max_h != dist:
            fails.append(f"{src}->{dst}: {max_h} hops != minimal {dist}")
        bound = zero_load_latency(network, dist, flits)
        if min_lat < bound:
            fails.append(f"{src}->{dst}: latency {min_lat} < zero-load "
                         f"bound {bound}")
    if counted != c["samples"]:
        fails.append(f"sample pairs hold {counted} samples, result has "
                     f"{c['samples']}")
    if len(fails) > 20:
        fails = fails[:20] + [f"... and {len(fails) - 20} more"]
    return fails


def check_open_loop(config, report):
    """Accepted throughput matches the offered rate and the mean hop count
    matches uniform random traffic, each within five standard errors."""
    (_, app), = blast_apps(config)
    c = report["checks"]
    fails = []
    offered = app["injection_rate"]
    messages = c["rate_window_flits"] / app.get("message_size", 1)
    if messages <= 0:
        return ["empty throughput window"]
    tolerance = 5.0 / math.sqrt(messages)
    if abs(c["throughput"] - offered) > tolerance * offered:
        fails.append(f"throughput {c['throughput']:.5f} is not within "
                     f"{tolerance:.2%} of offered {offered}")
    mean, sd = uniform_hops(config["network"])
    total = sum(row[3] for row in c["sample_pairs"])
    hops = sum(row[6] for row in c["sample_pairs"]) / total
    if abs(hops - mean) > 5.0 * sd / math.sqrt(total) + 1e-9:
        fails.append(f"mean hops {hops:.4f} vs uniform random {mean:.4f}")
    return fails


def check_determinism(config, report):
    """Every run of the process gave the same result JSON, and so did the
    run at the reference thread count."""
    results = report.get("results", [])
    fails = []
    if any(r != results[0] for r in results[1:]):
        fails.append("repeated runs of one seed gave different results")
    if "identity_result" in report and results and \
            report["identity_result"] != results[0]:
        fails.append("result at threads=1 differs from the benchmark's "
                     "thread count")
    sweep = report.get("sweep", {})
    sweep_results = [sweep[k]["result"] for k in ("t1", "t2", "t4")
                     if k in sweep]
    if any(r != sweep_results[0] for r in sweep_results[1:]):
        fails.append("results differ across 1, 2 and 4 threads")
    return fails


def check_collective(config, report):
    """Ring all-reduce: exactly iterations x N x 2(N-1) chunks' worth of
    flits delivered, every all-reduce no faster than the ring alpha-beta
    bound, and the resilience flit ledger balances."""
    network = config["network"]
    apps = config["workload"]["applications"]
    c = report["checks"]
    fails = []
    n = num_terminals(network)
    (coll_index, coll), = [(i, a) for i, a in enumerate(apps)
                           if a["type"] == "collective"]
    (op,) = coll["schedule"]
    flit_bytes = coll.get("flit_bytes", 16)
    chunk_flits = math.ceil(op["payload_bytes"] / n / flit_bytes)
    iterations = coll.get("iterations", 1)
    expected = iterations * n * 2 * (n - 1) * chunk_flits

    blast_flits = sum(c["apps"][i]["received"] * a.get("message_size", 1)
                      for i, a in blast_apps(config))
    coll_flits = sum(c["flits_ejected"]) - blast_flits
    if coll_flits != expected:
        fails.append(f"collective delivered {coll_flits} flits, expected "
                     f"{expected}")

    alpha = min(zero_load_latency(network, router_distance(network, s, d), 1)
                for s in range(n) for d in range(n) if d != s)
    step = alpha + (chunk_flits - 1) * network.get("clock_period", 1)
    bound = 2 * (n - 1) * step
    records = [r for r in c["collective_records"] if r["app"] == coll_index]
    if len(records) != iterations:
        fails.append(f"{len(records)} all-reduce completions, expected "
                     f"{iterations}")
    for r in records:
        if r["end"] - r["start"] < bound:
            fails.append(f"iteration {r['iteration']} took "
                         f"{r['end'] - r['start']} ticks < alpha-beta bound "
                         f"{bound}")

    res = c["resilience"]
    if not res["enabled"]:
        fails.append("resilience report missing")
    elif (res["flits_injected"] != res["flits_ejected"]
          or res["messages_in_flight"] != 0
          or res["flits_injected"] != sum(c["flits_injected"])):
        fails.append(f"resilience ledger does not balance: {res}")
    if res.get("injected", 0) == 0:
        fails.append("no fault was injected")
    return fails


def check_routing_walks(config, report):
    """Routing walks on the built network all ended at their destination."""
    layers = report.get("layers", {})
    missed = layers.get("routing.misdelivered", 0)
    return [f"{missed} routing walks missed their destination"] if missed \
        else []


def run_checks(spec, config, report):
    """All checks that apply to a workload; returns failure messages."""
    fails = check_conservation(config, report)
    fails += check_samples(config, report, spec["exact_hops"])
    if spec["open_loop"]:
        fails += check_open_loop(config, report)
    if spec["collective"]:
        fails += check_collective(config, report)
    fails += check_determinism(config, report)
    fails += check_routing_walks(config, report)
    return fails

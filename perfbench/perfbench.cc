/**
 * perfbench: runs one benchmark workload through the simulator's public
 * API and writes a raw JSON report that run.py turns into metrics and
 * correctness checks.
 *
 *   perfbench run   CONFIG --report OUT.json [--check]
 *   perfbench trace CONFIG --report OUT.json --trace-file TRACE.json
 *
 * run makes one whole run (load, build, run, summary, toJson, teardown)
 * in a fresh process, the way a researcher runs one configuration, and
 * times each part: the set-up is cold and timed from the process's start.
 * The report holds the result JSON without wall-clock fields for the
 * determinism check. With --check the run also keeps its counters and
 * samples for the correctness checks and, when the config runs on more
 * than one thread, adds a run at simulator.threads=1 whose result JSON
 * must match byte for byte; a process without --check collects nothing
 * beyond its timings, so its peak RSS is the simulator's own.
 *
 * trace times the calls into each layer of one run as spans (written as a
 * Chrome trace), then measures the layers from outside: an event loop
 * through Simulator's scheduling calls, routing walks, congestion
 * queries, arbitration rounds and traffic draws on the built network,
 * the same network at 1, 2 and 4 threads and on one partition, and the
 * power model's activity counters (from a side run with the power model
 * at its defaults when the workload has it off).
 *
 * Nothing here changes the simulator; it only calls what the library
 * exports.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "arbiter/arbiter.h"
#include "collective/collective.h"
#include "congestion/congestion_sensor.h"
#include "core/simulator.h"
#include "json/json.h"
#include "json/settings.h"
#include "network/interface.h"
#include "network/network.h"
#include "network/router.h"
#include "network/routing_algorithm.h"
#include "power/power_model.h"
#include "sim/builder.h"
#include "sim/run_result.h"
#include "traffic/traffic_pattern.h"
#include "types/message.h"
#include "workload/application.h"
#include "workload/terminal.h"
#include "workload/workload.h"

namespace {

using SteadyClock = std::chrono::steady_clock;

// Initialized before every other static object of the program (the
// library's self-registering models included): the cold set-up is timed
// from here.
__attribute__((init_priority(101))) const SteadyClock::time_point
    kProcessStart = SteadyClock::now();

double
since(SteadyClock::time_point start)
{
    return std::chrono::duration<double>(SteadyClock::now() - start)
        .count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Results of the timed layer loops land here so the compiler cannot
 *  drop the calls that produce them. */
volatile std::uint64_t g_sink = 0;

/** Small deterministic generator for the layer loops' inputs (the
 *  simulator's own RNG streams stay untouched). */
struct SplitMix {
    std::uint64_t state;
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint32_t below(std::uint32_t n) { return next() % n; }
};

/** Chrome-trace spans recorded around the benchmark's calls into each
 *  layer; kept in memory and written once at the end. */
class Tracer {
  public:
    template <typename F>
    double
    span(const std::string& name, const std::string& parent, F&& fn)
    {
        double start = since(kProcessStart);
        fn();
        double duration = since(kProcessStart) - start;
        spans_.push_back({name, parent, start, duration});
        return duration;
    }

    void
    write(const std::string& path) const
    {
        ss::json::Value events = ss::json::Value::array();
        for (const Span& s : spans_) {
            ss::json::Value e = ss::json::Value::object();
            e["name"] = s.name;
            e["ph"] = "X";
            e["pid"] = 1;
            e["tid"] = 1;
            e["ts"] = s.start * 1e6;
            e["dur"] = s.duration * 1e6;
            ss::json::Value args = ss::json::Value::object();
            args["parent"] = s.parent;
            e["args"] = std::move(args);
            events.append(std::move(e));
        }
        ss::json::Value root = ss::json::Value::object();
        root["traceEvents"] = std::move(events);
        std::ofstream(path) << root.toString() << '\n';
    }

  private:
    struct Span {
        std::string name;
        std::string parent;
        double start;
        double duration;
    };
    std::vector<Span> spans_;
};

/** Times @p fn, recording a span when a tracer is given. */
template <typename F>
double
timed(Tracer* tracer, const std::string& name, const std::string& parent,
      F&& fn)
{
    if (tracer != nullptr) {
        return tracer->span(name, parent, std::forward<F>(fn));
    }
    auto start = SteadyClock::now();
    fn();
    return since(start);
}

/** The result JSON without its wall-clock and build fields. */
std::string
strippedResult(const ss::RunResult& result)
{
    ss::json::Value json = result.toJson();
    json.erase("version");
    json.at("engine").erase("wall_seconds");
    json.at("engine").erase("event_rate");
    return json.toString();
}

/** Every flit channel has exactly one sender: a router output port or an
 *  interface's injection port. */
std::uint64_t
flitHops(ss::Network* network)
{
    std::uint64_t hops = 0;
    for (std::uint32_t r = 0; r < network->numRouters(); ++r) {
        ss::Router* router = network->router(r);
        for (std::uint32_t p = 0; p < router->numPorts(); ++p) {
            if (router->outputWired(p)) {
                hops += router->outputChannel(p)->flitCount();
            }
        }
    }
    for (std::uint32_t i = 0; i < network->numInterfaces(); ++i) {
        hops += network->interface(i)->outputChannel()->flitCount();
    }
    return hops;
}

struct RepTimes {
    double load = 0.0;
    double build = 0.0;
    double run = 0.0;
    double summarize = 0.0;
    double toJson = 0.0;
    double teardown = 0.0;
    double cpu = 0.0;
    /** Process start to the end of Simulation construction. */
    double coldSetup = 0.0;

    double
    wall() const
    {
        return load + build + run + summarize + toJson + teardown;
    }

    ss::json::Value
    json() const
    {
        ss::json::Value v = ss::json::Value::object();
        v["load_s"] = load;
        v["build_s"] = build;
        v["run_s"] = run;
        v["summarize_s"] = summarize;
        v["to_json_s"] = toJson;
        v["teardown_s"] = teardown;
        v["wall_s"] = wall();
        v["cpu_s"] = cpu;
        return v;
    }
};

/** What one whole run leaves behind. */
struct RepOutcome {
    RepTimes times;
    std::string result;
    std::uint64_t sent = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t flitHops = 0;
    std::uint64_t partitions = 0;
    ss::json::Value checks;  // null unless requested
};

/** Config edits applied after loading (thread sweeps, power side run). */
struct Overrides {
    std::int64_t threads = -1;  // -1: keep the config's value
    std::int64_t partitions = -1;
    bool power = false;  // enable the power model at its defaults

    void
    apply(ss::json::Value* config) const
    {
        ss::json::Value& simulator = (*config)["simulator"];
        if (threads >= 0) {
            simulator["threads"] = static_cast<std::uint64_t>(threads);
        }
        if (partitions >= 0) {
            simulator["partitions"] = static_cast<std::uint64_t>(partitions);
        }
        if (power) {
            ss::json::Value block = ss::json::Value::object();
            block["enabled"] = true;
            (*config)["power"] = std::move(block);
        }
    }
};

std::uint64_t
messagesSent(ss::Simulation& sim, std::uint32_t app_id)
{
    ss::Application* app = sim.workload()->application(app_id);
    std::uint64_t sent = 0;
    for (std::uint32_t t = 0; t < app->numTerminals(); ++t) {
        sent += app->terminal(t)->messagesSent();
    }
    return sent;
}

std::uint64_t
messagesReceived(ss::Simulation& sim, std::uint32_t app_id)
{
    ss::Application* app = sim.workload()->application(app_id);
    std::uint64_t received = 0;
    for (std::uint32_t t = 0; t < app->numTerminals(); ++t) {
        received += app->terminal(t)->messagesReceived();
    }
    return received;
}

/** Raw material for run.py's checks: per-interface flit counters, the
 *  terminals' message counts, sampled messages aggregated per (source,
 *  destination, size), collective records and the resilience ledger. */
ss::json::Value
collectChecks(ss::Simulation& sim, const ss::RunResult& result)
{
    using ss::json::Value;
    ss::Network* network = sim.network();
    Value c = Value::object();
    c["saturated"] = result.saturated;
    c["events"] = result.eventsExecuted;
    c["end_tick"] = result.endTick;
    c["peak_queue_depth"] = std::uint64_t{result.peakQueueDepth};
    c["messages_in_flight"] = std::uint64_t{network->messagesInFlight()};
    c["flit_hops"] = flitHops(network);
    c["credits"] = network->totalCreditsSent();
    c["throughput"] = result.throughput();
    c["rate_window_ticks"] = result.rateMonitor.windowTicks();
    c["rate_window_flits"] = result.rateMonitor.totalFlits();

    Value injected = Value::array();
    Value ejected = Value::array();
    for (std::uint32_t i = 0; i < network->numInterfaces(); ++i) {
        injected.append(network->interface(i)->flitsInjected());
        ejected.append(network->interface(i)->flitsEjected());
    }
    c["flits_injected"] = std::move(injected);
    c["flits_ejected"] = std::move(ejected);

    Value apps = Value::array();
    for (std::uint32_t a = 0; a < sim.workload()->numApplications(); ++a) {
        Value app = Value::object();
        app["sent"] = messagesSent(sim, a);
        app["received"] = messagesReceived(sim, a);
        apps.append(std::move(app));
    }
    c["apps"] = std::move(apps);

    // [count, min hops, max hops, sum hops, min total latency]
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>,
             std::array<std::uint64_t, 5>>
        pairs;
    for (const ss::MessageSample& s : result.sampler.samples()) {
        auto& agg = pairs
                        .try_emplace({s.source, s.destination, s.flits},
                                     std::array<std::uint64_t, 5>{
                                         0, s.hops, s.hops, 0,
                                         s.totalLatency()})
                        .first->second;
        ++agg[0];
        agg[1] = std::min<std::uint64_t>(agg[1], s.hops);
        agg[2] = std::max<std::uint64_t>(agg[2], s.hops);
        agg[3] += s.hops;
        agg[4] = std::min(agg[4], s.totalLatency());
    }
    Value rows = Value::array();
    for (const auto& [key, agg] : pairs) {
        Value row = Value::array();
        row.append(std::uint64_t{std::get<0>(key)});
        row.append(std::uint64_t{std::get<1>(key)});
        row.append(std::uint64_t{std::get<2>(key)});
        for (std::uint64_t v : agg) {
            row.append(v);
        }
        rows.append(std::move(row));
    }
    c["sample_pairs"] = std::move(rows);
    c["samples"] = std::uint64_t{result.sampler.count()};

    Value records = Value::array();
    for (std::uint32_t a = 0; a < sim.workload()->numApplications(); ++a) {
        auto* coll = dynamic_cast<ss::CollectiveApplication*>(
            sim.workload()->application(a));
        if (coll == nullptr) {
            continue;
        }
        for (const ss::CollectiveRecord& r : coll->records()) {
            if (r.opIndex == coll->numOps()) {
                continue;  // per-iteration summary row
            }
            Value rec = Value::object();
            rec["app"] = std::uint64_t{a};
            rec["iteration"] = std::uint64_t{r.iteration};
            rec["algorithm"] = r.algorithm;
            rec["payload_bytes"] = r.payloadBytes;
            rec["start"] = r.start;
            rec["end"] = r.end;
            records.append(std::move(rec));
        }
    }
    c["collective_records"] = std::move(records);

    const ss::fault::ResilienceReport& res = result.resilience;
    Value resilience = Value::object();
    resilience["enabled"] = res.enabled;
    resilience["injected"] = res.injected;
    resilience["completed"] = res.completed;
    resilience["recovered"] = res.recovered;
    resilience["flits_injected"] = res.flitsInjected;
    resilience["flits_ejected"] = res.flitsEjected;
    resilience["messages_in_flight"] = res.messagesInFlight;
    c["resilience"] = std::move(resilience);
    return c;
}

/** One whole run: load, build, run, summary, toJson and teardown, each
 *  timed. @p before_teardown runs untimed with the live simulation. */
RepOutcome
runOnce(const std::string& config_path, const Overrides& overrides,
        Tracer* tracer, bool collect,
        const std::function<void(ss::Simulation&, const ss::RunResult&)>&
            before_teardown = {})
{
    RepOutcome out;
    RepTimes& t = out.times;
    const std::string parent = "rep";
    double cpu_start = cpuSeconds();

    ss::json::Value config;
    t.load = timed(tracer, "json.load", parent,
                   [&] { config = ss::json::parseFile(config_path); });
    overrides.apply(&config);

    std::unique_ptr<ss::Simulation> sim;
    t.build = timed(tracer, "sim.build", parent, [&] {
        sim = std::make_unique<ss::Simulation>(config);
    });
    t.coldSetup = since(kProcessStart);

    ss::RunResult result;
    t.run = timed(tracer, "sim.run", parent, [&] { result = sim->run(); });
    std::string summary;
    t.summarize = timed(tracer, "stats.summarize", parent,
                        [&] { summary = result.summary(); });
    std::string json_text;
    t.toJson = timed(tracer, "sim.to_json", parent,
                     [&] { json_text = result.toJson().toString(); });
    double cpu_before_pause = cpuSeconds();

    out.result = strippedResult(result);
    for (std::uint32_t a = 0; a < sim->workload()->numApplications(); ++a) {
        out.sent += messagesSent(*sim, a);
    }
    out.inFlight = sim->network()->messagesInFlight();
    out.flitHops = flitHops(sim->network());
    out.partitions = sim->simulator()->numWorkerPartitions();
    if (collect) {
        out.checks = collectChecks(*sim, result);
    }
    if (before_teardown) {
        before_teardown(*sim, result);
    }

    double cpu_resume = cpuSeconds();
    t.teardown = timed(tracer, "sim.teardown", parent, [&] { sim.reset(); });
    t.cpu = (cpu_before_pause - cpu_start) + (cpuSeconds() - cpu_resume);
    if (summary.empty() || json_text.empty()) {
        throw std::runtime_error("empty summary or result JSON");
    }
    return out;
}

// ----- layer loops (trace mode) -----

/** Runs @p round until @p budget seconds pass; returns ns per op, where
 *  each round reports how many ops it did. */
template <typename F>
double
nsPerOp(double budget, F&& round)
{
    std::uint64_t ops = 0;
    auto start = SteadyClock::now();
    double elapsed = 0.0;
    do {
        ops += round();
        elapsed = since(start);
    } while (elapsed < budget);
    return elapsed * 1e9 / static_cast<double>(ops);
}

/** Schedule -> dispatch through Simulator::schedule: 1024 chains of
 *  events, each rescheduling itself after a delay drawn from
 *  [1, horizon]. Returns ns per executed event. */
double
eventLoopNs(std::uint32_t horizon, double budget)
{
    struct Chain {
        ss::Simulator* sim;
        const std::vector<ss::Tick>* delays;
        std::size_t cursor;
        std::uint64_t* remaining;
        void
        fire()
        {
            if (*remaining == 0) {
                return;
            }
            --*remaining;
            ss::Tick delay = (*delays)[cursor++ % delays->size()];
            sim->schedule(ss::Time(sim->now().tick + delay),
                          [this] { fire(); });
        }
    };
    constexpr std::uint32_t kDepth = 1024;
    constexpr std::uint64_t kEventsPerRound = 2000000;
    std::vector<ss::Tick> delays(4096);
    SplitMix rng{horizon};
    for (ss::Tick& d : delays) {
        d = 1 + rng.below(horizon);
    }
    return nsPerOp(budget, [&]() -> std::uint64_t {
        ss::Simulator sim(1);
        std::uint64_t remaining = kEventsPerRound;
        std::vector<Chain> chains;
        chains.reserve(kDepth);
        for (std::uint32_t i = 0; i < kDepth; ++i) {
            chains.push_back({&sim, &delays, i * 4u, &remaining});
            chains.back().fire();
        }
        return sim.run();
    });
}

struct LayerLoops {
    double routeNs = 0.0;
    double queryNs = 0.0;
    double arbitrateNs = 0.0;
    double nextDestNs = 0.0;
    std::uint64_t routeMisdelivered = 0;
};

/** Routing, congestion, arbitration and traffic loops on a built
 *  network, with inputs drawn from the workload's traffic pattern. */
LayerLoops
layerLoops(ss::Simulation& sim, const ss::json::Value& config,
           double budget, Tracer* tracer)
{
    LayerLoops out;
    ss::Network* network = sim.network();
    ss::Simulator* simulator = sim.simulator();
    const ss::json::Value& network_cfg = config.at("network");
    const ss::json::Value& app_cfg =
        config.at("workload").at("applications");
    ss::json::Value traffic_cfg = ss::json::Value::object();
    traffic_cfg["type"] = "uniform_random";
    for (std::size_t a = 0; a < app_cfg.size(); ++a) {
        if (app_cfg.at(a).has("traffic")) {
            traffic_cfg = app_cfg.at(a).at("traffic");
        }
    }
    std::uint32_t terminals = network->numInterfaces();
    std::vector<std::unique_ptr<ss::TrafficPattern>> patterns;
    for (std::uint32_t t = 0; t < terminals; ++t) {
        patterns.push_back(ss::TrafficPatternFactory::instance().createUnique(
            traffic_cfg.at("type").asString(), simulator,
            "perfbench_traffic_" + std::to_string(t), nullptr, terminals,
            t, traffic_cfg));
    }

    tracer->span("traffic.next_destination", "layers", [&] {
        out.nextDestNs = nsPerOp(budget, [&]() -> std::uint64_t {
            for (auto& pattern : patterns) {
                for (int i = 0; i < 64; ++i) {
                    g_sink = pattern->nextDestination();
                }
            }
            return patterns.size() * 64;
        });
    });

    // Routing walks: from each source's injection port, follow the first
    // option at every router until the flit leaves for an interface.
    std::vector<std::unique_ptr<ss::Message>> messages;
    for (std::uint32_t i = 0; i < 4096; ++i) {
        std::uint32_t src = i % terminals;
        std::uint32_t dst = patterns[src]->nextDestination();
        messages.push_back(
            std::make_unique<ss::Message>(i, 0, src, dst, 1, 1));
    }
    tracer->span("routing.route", "layers", [&] {
        std::vector<ss::RoutingAlgorithm::Option> options;
        out.routeNs = nsPerOp(budget, [&]() -> std::uint64_t {
            std::uint64_t calls = 0;
            for (auto& message : messages) {
                ss::Packet* packet = message->packet(0);
                packet->setRoutingPhase(0);
                packet->setIntermediate(ss::Packet::kNoIntermediate);
                packet->setVcClass(0);
                ss::Channel* channel =
                    network->interface(message->source())->outputChannel();
                std::uint32_t vc = 0;
                for (int hop = 0; hop < 64; ++hop) {
                    auto* router = dynamic_cast<ss::Router*>(channel->sink());
                    if (router == nullptr) {
                        break;
                    }
                    options.clear();
                    router->routingEngine(channel->sinkPort())
                        ->route(packet, vc, &options);
                    ++calls;
                    channel = router->outputChannel(options.front().port);
                    vc = options.front().vc;
                }
                auto* iface = dynamic_cast<ss::Interface*>(channel->sink());
                if (iface == nullptr ||
                    iface->id() != message->destination()) {
                    ++out.routeMisdelivered;
                }
            }
            return calls;
        });
    });

    std::uint32_t vcs = network->numVcs();
    std::uint32_t max_ports = 0;
    for (std::uint32_t r = 0; r < network->numRouters(); ++r) {
        max_ports = std::max(max_ports, network->router(r)->numPorts());
    }
    tracer->span("congestion.status", "layers", [&] {
        SplitMix rng{3};
        std::vector<std::tuple<ss::CongestionSensor*, std::uint32_t,
                               std::uint32_t>>
            queries(4096);
        for (auto& q : queries) {
            ss::Router* router =
                network->router(rng.below(network->numRouters()));
            q = {router->sensor(), rng.below(router->numPorts()),
                 rng.below(vcs)};
        }
        out.queryNs = nsPerOp(budget, [&]() -> std::uint64_t {
            for (const auto& [sensor, port, vc] : queries) {
                g_sink = static_cast<std::uint64_t>(
                    sensor->status(port, vc));
            }
            return queries.size();
        });
    });

    tracer->span("arbiter.arbitrate", "layers", [&] {
        const ss::json::Value& router_cfg = network_cfg.at("router");
        ss::json::Value arbiter_cfg = ss::json::Value::object();
        if (router_cfg.has("crossbar_scheduler") &&
            router_cfg.at("crossbar_scheduler").has("arbiter")) {
            arbiter_cfg = router_cfg.at("crossbar_scheduler").at("arbiter");
        }
        std::string type = arbiter_cfg.has("type")
                               ? arbiter_cfg.at("type").asString()
                               : "round_robin";
        std::uint32_t width = max_ports * vcs;
        auto arbiter = ss::ArbiterFactory::instance().createUnique(
            type, simulator, "perfbench_arbiter", nullptr, width,
            arbiter_cfg);
        SplitMix rng{5};
        std::vector<std::vector<std::uint32_t>> rounds(1024);
        for (auto& clients : rounds) {
            for (std::uint32_t c = 0; c < width; ++c) {
                if (rng.below(2) == 0) {
                    clients.push_back(c);
                }
            }
            if (clients.empty()) {
                clients.push_back(rng.below(width));
            }
        }
        out.arbitrateNs = nsPerOp(budget, [&]() -> std::uint64_t {
            for (const auto& clients : rounds) {
                for (std::uint32_t c : clients) {
                    arbiter->request(c, c);
                }
                std::uint32_t winner = arbiter->arbitrate();
                arbiter->grant(winner);
                g_sink = winner;
            }
            return rounds.size();
        });
    });
    return out;
}

/** The largest single scheduling delay the workload's config implies. */
std::uint32_t
delayHorizon(const ss::json::Value& config)
{
    const ss::json::Value& net = config.at("network");
    const ss::json::Value& router = net.at("router");
    std::uint64_t h = 1;
    for (const char* key : {"channel_latency", "terminal_latency"}) {
        if (net.has(key)) {
            h = std::max(h, net.at(key).asUint());
        }
    }
    for (const char* key : {"core_latency", "crossbar_latency"}) {
        if (router.has(key)) {
            h = std::max(h, router.at(key).asUint());
        }
    }
    return static_cast<std::uint32_t>(h);
}

ss::json::Value
powerCounts(const ss::power::PowerReport& energy)
{
    ss::json::Value v = ss::json::Value::object();
    v["router_buffer_writes"] = energy.routerBufferWrites;
    v["router_arbitrations"] = energy.routerArbitrations;
    v["channel_flits"] = energy.channelFlits;
    return v;
}

int
traceMode(const std::string& config_path, const std::string& trace_path,
          ss::json::Value* report)
{
    using ss::json::Value;
    Tracer tracer;
    const double kLoopBudget = 0.25;
    Value config = ss::json::parseFile(config_path);
    bool has_power = config.has("power");
    Value layers = Value::object();
    auto record_power = [&](ss::Simulation& sim,
                            const ss::RunResult& result) {
        ss::power::PowerReport energy;
        layers["power.report_s"] = tracer.span("power.report", "rep", [&] {
            energy = sim.powerModel()->report(result.endTick);
        });
        layers["power"] = powerCounts(energy);
    };

    RepOutcome traced = runOnce(
        config_path, Overrides{}, &tracer, true,
        [&](ss::Simulation& sim, const ss::RunResult& result) {
            if (has_power) {
                record_power(sim, result);
            }
            LayerLoops loops =
                layerLoops(sim, config, kLoopBudget, &tracer);
            layers["routing.route_ns"] = loops.routeNs;
            layers["congestion.query_ns"] = loops.queryNs;
            layers["arbiter.arbitrate_ns"] = loops.arbitrateNs;
            layers["traffic.next_dest_ns"] = loops.nextDestNs;
            layers["routing.misdelivered"] = loops.routeMisdelivered;
        });
    (*report)["traced"] = traced.times.json();
    (*report)["checks"] = traced.checks;
    (*report)["messages_sent"] = traced.sent;
    (*report)["messages_in_flight"] = traced.inFlight;

    tracer.span("core.event_loop", "layers", [&] {
        layers["core.event_ns"] =
            eventLoopNs(delayHorizon(config), kLoopBudget);
    });

    RepOutcome untraced = runOnce(config_path, Overrides{}, nullptr, false);
    (*report)["untraced"] = untraced.times.json();

    Value sweep = Value::object();
    for (std::int64_t threads : {1, 2, 4}) {
        Overrides o;
        o.threads = threads;
        RepOutcome r;
        tracer.span("sim.run_t" + std::to_string(threads), "sweep",
                    [&] { r = runOnce(config_path, o, nullptr, false); });
        Value entry = r.times.json();
        entry["partitions"] = r.partitions;
        entry["result"] = r.result;
        sweep["t" + std::to_string(threads)] = std::move(entry);
    }
    {
        Overrides o;
        o.threads = 1;
        o.partitions = 1;
        RepOutcome r;
        tracer.span("sim.run_p1", "sweep",
                    [&] { r = runOnce(config_path, o, nullptr, false); });
        sweep["p1"] = r.times.json();
    }
    (*report)["sweep"] = std::move(sweep);

    if (!has_power) {
        Overrides o;
        o.power = true;
        tracer.span("power.side_run", "power", [&] {
            runOnce(config_path, o, nullptr, false, record_power);
        });
    }
    (*report)["layers"] = std::move(layers);
    tracer.write(trace_path);
    return 0;
}

int
runMode(const std::string& config_path, bool check, ss::json::Value* report)
{
    RepOutcome r = runOnce(config_path, Overrides{}, nullptr, check);
    (*report)["times"] = r.times.json();
    (*report)["cold_setup_s"] = r.times.coldSetup;
    (*report)["result"] = r.result;
    (*report)["flit_hops"] = r.flitHops;
    std::uint64_t sent = r.sent;
    std::uint64_t in_flight = r.inFlight;
    if (check) {
        (*report)["checks"] = std::move(r.checks);
        // A multi-threaded run must give what one thread gives, byte for
        // byte.
        ss::json::Value config = ss::json::parseFile(config_path);
        if (config.has("simulator") &&
            ss::json::getUint(config.at("simulator"), "threads", 0) > 1) {
            Overrides o;
            o.threads = 1;
            RepOutcome t1 = runOnce(config_path, o, nullptr, false);
            (*report)["identity_result"] = t1.result;
            sent += t1.sent;
            in_flight += t1.inFlight;
        }
    }
    (*report)["messages_sent"] = sent;
    (*report)["messages_in_flight"] = in_flight;
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench run|trace CONFIG --report OUT.json "
                 "[--check] [--trace-file TRACE.json]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 3) {
        return usage();
    }
    std::string mode = argv[1];
    std::string config_path = argv[2];
    std::string report_path;
    std::string trace_path;
    bool check = false;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--check") {
            check = true;
        } else if (arg == "--report" && i + 1 < argc) {
            report_path = argv[++i];
        } else if (arg == "--trace-file" && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            return usage();
        }
    }
    bool valid = !report_path.empty() &&
                 ((mode == "run" && trace_path.empty()) ||
                  (mode == "trace" && !trace_path.empty() && !check));
    if (!valid) {
        return usage();
    }
    try {
        ss::json::Value report = ss::json::Value::object();
        int status = mode == "run"
                         ? runMode(config_path, check, &report)
                         : traceMode(config_path, trace_path, &report);
        report["peak_rss_mb"] = peakRssMb();
        std::ofstream(report_path) << report.toString() << '\n';
        return status;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

/**
 * @file
 * Workload `serve_mix`: an in-process adored Daemon with two workers,
 * driven through serve::handleLine with `submit` and `wait` lines by a
 * closed loop of three client threads (each sends its next job only
 * after the previous one completed).
 *
 * The seeded job list mixes registry workloads at O2/O3 with seeded
 * dataSeed values and, one job in five, inline generator kernels.  New
 * configurations come in ADORE off/on pairs; about one job in three is
 * an exact repeat of an earlier job and is served from the result
 * cache.  Every job is capped at kMaxCycles simulated cycles.
 *
 * Correctness: a job is ok when it reaches Done; refused submissions
 * count as failed.  After the timed loop a seeded sample of distinct
 * misses is re-run one-shot through serve::buildRunConfig and must
 * match the served metrics byte for byte; the same replays in the
 * interpreter tier must agree with them under invariants::diffIdentity.
 *
 * Every workload must print every end-to-end metric, so serve_mix also
 * runs the fig07a comparison (restricted O2, ADORE off/on, full length)
 * one-shot for seven short registry workloads; the served 1M-cycle jobs
 * cannot stand in for the paper's full-run gains.  The replays in the
 * interpreter tier likewise exist to give serve_mix a tier_speedup.
 */

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common.hh"
#include "harness/invariants.hh"
#include "observe/report.hh"
#include "serve/daemon.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/rng.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

namespace json = adore::serve::json;

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 3;
constexpr std::uint64_t kMaxCycles = 1'000'000;
/** Jobs at least this many positions back may be repeated, so the
 *  original has finished (and filled the cache) by then. */
constexpr std::size_t kRepeatDistance = 8;
constexpr std::size_t kKernelPool = 64;
/** Workloads of the fig07a comparison: six short full runs and mcf,
 *  the paper's headline gain. */
const std::vector<std::string> kFig07aNames{"gzip",   "swim", "art", "gap",
                                            "parser", "mesa", "mcf"};

struct JobSpec
{
    std::string line;      ///< the submit request line
    adore::serve::JobRequest req;
    bool repeat = false;
};

struct JobRecord
{
    bool sent = false;
    bool admitted = false;
    bool done = false;
    bool hit = false;
    double submitMs = 0.0;
    double latencyMs = 0.0;  ///< submit sent → completion observed
    std::string metrics;     ///< compact served metrics JSON
};

std::string
submitLine(const adore::serve::JobRequest &req)
{
    json::Value v = json::Value::makeObject();
    v.add("op", json::Value::makeString("submit"));
    if (!req.workload.empty())
        v.add("workload", json::Value::makeString(req.workload));
    else
        v.add("kernel", json::Value::makeString(req.kernel));
    v.add("opt", json::Value::makeString(req.opt));
    v.add("adore", json::Value::makeBool(req.adore));
    v.add("seed",
          json::Value::makeNumber(static_cast<double>(req.dataSeed)));
    v.add("max_cycles",
          json::Value::makeNumber(static_cast<double>(req.maxCycles)));
    return v.render();
}

/**
 * The seeded job list: @p count jobs over @p kernels.  Jobs come in
 * threes — a new configuration with ADORE off, the same with ADORE on,
 * then an exact repeat of an earlier job — so the repeat share is one
 * third whatever the seed.  New configurations rotate through the
 * registry in seeded order, with one configuration in five an inline
 * kernel, so every seed draws the same program mix.
 */
std::vector<JobSpec>
makeJobs(std::uint64_t seed, std::size_t count,
         const std::vector<std::string> &kernels)
{
    const auto &all = adore::workloads::allWorkloads();
    adore::Rng rng(seed ^ 0x5e7e5e7eULL);
    std::vector<std::size_t> order;
    std::size_t nextKernel = 0;
    std::vector<JobSpec> jobs;
    for (std::size_t family = 0; jobs.size() < count; ++family) {
        std::size_t i = jobs.size();
        if (i >= kRepeatDistance && i % 3 == 2) {
            JobSpec rep = jobs[rng.below(i - kRepeatDistance + 1)];
            rep.repeat = true;
            jobs.push_back(rep);
        }
        adore::serve::JobRequest req;
        if (family % 5 == 4) {
            req.kernel = kernels[nextKernel++ % kernels.size()];
        } else {
            if (order.empty()) {
                for (std::size_t w = 0; w < all.size(); ++w)
                    order.push_back(w);
                for (std::size_t k = order.size(); k > 1; --k)
                    std::swap(order[k - 1], order[rng.below(k)]);
            }
            req.workload = all[order.back()].name;
            order.pop_back();
        }
        req.opt = rng.below(2) ? "o3" : "o2";
        req.dataSeed = 2 + rng.below(1'000'000'000);
        req.maxCycles = kMaxCycles;
        for (bool adoreOn : {false, true}) {
            JobSpec job;
            job.req = req;
            job.req.adore = adoreOn;
            job.line = submitLine(job.req);
            jobs.push_back(job);
        }
    }
    jobs.resize(count);
    return jobs;
}

/** Member @p key of a flat metrics JSON object. */
double
metricOf(const std::string &metricsJson, const std::string &key)
{
    json::Value v;
    std::string err;
    if (!json::parse(metricsJson, v, err))
        return 0.0;
    return v.num(key);
}

/** @p count generator kernels in corpus text form. */
std::vector<std::string>
generateKernels(std::uint64_t seed, std::size_t count, Tracer &tracer)
{
    std::vector<std::string> kernels;
    for (std::size_t k = 0; k < count; ++k) {
        Tracer::Scope span(tracer, "workloads::generate");
        adore::workloads::GeneratorConfig gen;
        gen.seed = seed * 1000 + k;
        kernels.push_back(
            adore::workloads::renderProgram(adore::workloads::generate(gen)));
    }
    return kernels;
}

/** One closed-loop drive of a fresh daemon. */
struct Loop
{
    std::vector<JobRecord> records;  ///< parallel to the job list
    std::size_t sent = 0;            ///< jobs whose submit was sent
    double wall = 0.0;
    double cpu = 0.0;
    double clientCpu = 0.0;          ///< CPU of the client threads
    adore::observe::MetricsRegistry metrics;  ///< daemon, after the loop
};

Loop
runLoop(const adore::serve::DaemonConfig &cfg,
        const std::vector<JobSpec> &jobs, std::size_t minJobs,
        double seconds, Tracer &tracer)
{
    Loop loop;
    loop.records.resize(jobs.size());
    adore::serve::Daemon daemon(cfg);
    std::atomic<std::size_t> next{0};
    std::vector<double> clientCpu(kClients, 0.0);
    const double start = wallS();
    const double c0 = processCpuS();
    auto client = [&](unsigned c) {
        double cpu0 = threadCpuS();
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= jobs.size() ||
                (i >= minJobs && wallS() - start >= seconds))
                break;
            JobRecord &r = loop.records[i];
            std::string key = "job" + std::to_string(i);
            double t0 = wallS();
            Tracer::Scope jobSpan(tracer, "job", 0, key);
            json::Value resp;
            std::string err;
            {
                Tracer::Scope span(tracer, "serve::handleLine submit",
                                   jobSpan.id(), key);
                json::parse(
                    adore::serve::handleLine(daemon, jobs[i].line).response,
                    resp, err);
            }
            r.sent = true;
            r.submitMs = (wallS() - t0) * 1e3;
            if (!resp.flag("ok"))
                continue;
            r.admitted = true;
            std::string wait = "{\"op\":\"wait\",\"id\":" +
                               std::to_string(resp.u64("id")) +
                               ",\"timeout_ms\":120000}";
            {
                Tracer::Scope span(tracer, "serve::handleLine wait",
                                   jobSpan.id(), key);
                json::parse(adore::serve::handleLine(daemon, wait).response,
                            resp, err);
            }
            r.latencyMs = (wallS() - t0) * 1e3;
            r.done = resp.str("state") == "done";
            r.hit = resp.flag("cache_hit");
            r.metrics = resp.str("metrics_json");
        }
        clientCpu[c] = threadCpuS() - cpu0;
    };
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c)
        clients.emplace_back(client, c);
    for (std::thread &t : clients)
        t.join();
    loop.wall = wallS() - start;
    loop.cpu = processCpuS() - c0;
    for (double c : clientCpu)
        loop.clientCpu += c;
    loop.metrics = daemon.metrics();
    daemon.drain();
    for (const JobRecord &r : loop.records)
        if (r.sent)
            ++loop.sent;
    return loop;
}

} // namespace

Outcome
runServeMix(const Options &opt, Tracer &tracer)
{
    Outcome out;
    // Set-up: the kernel pool, then the registry programs built and
    // compiled at both levels (repeated; the fastest is reported).
    std::vector<std::string> names;
    for (const auto &info : adore::workloads::allWorkloads())
        names.push_back(info.name);
    std::vector<std::string> kernels;
    std::vector<double> setups, generates, makes, compiles;
    Tracer off(false);
    for (int rep = 0; rep < kSetupReps; ++rep) {
        Tracer &t = rep == 0 ? tracer : off;
        double t0 = wallS();
        kernels = generateKernels(opt.seed, opt.small ? 4 : kKernelPool, t);
        double t1 = wallS();
        ProgramSet set = buildPrograms(
            names, {adore::OptLevel::O2, adore::OptLevel::O3}, opt.seed, t);
        setups.push_back(wallS() - t0);
        generates.push_back(t1 - t0);
        makes.push_back(set.makeS);
        compiles.push_back(set.compileS);
    }
    // Enough jobs for any run length; the loop stops at the deadline.
    const std::size_t minJobs = opt.small ? 40 : 1000;
    std::vector<JobSpec> jobs = makeJobs(opt.seed, 20'000, kernels);

    adore::serve::DaemonConfig cfg;
    cfg.workers = kWorkers;
    cfg.cacheCapacity = 1 << 16;  // repeats must hit, never evicted

    // A traced run first drives an untraced daemon, as the baseline of
    // the tracing overhead; each loop gets a fresh daemon and cache.
    Tracer untraced(false);
    Loop loop = runLoop(cfg, jobs, minJobs, opt.seconds, untraced);
    double overheadS = 0.0;
    if (opt.trace) {
        Loop traced = runLoop(cfg, jobs, minJobs, opt.seconds, tracer);
        overheadS = (traced.wall / static_cast<double>(traced.sent) -
                     loop.wall / static_cast<double>(loop.sent)) *
                    static_cast<double>(loop.sent);
    }
    const std::vector<JobRecord> &records = loop.records;
    const double wall = loop.wall;
    const double cpu = loop.cpu;
    auto daemonMetric = [&](const std::string &name) {
        return loop.metrics.value(name).value_or(0.0);
    };

    // Correctness: every sent job Done, plus one-shot replays.
    std::vector<double> lat, submit, hitLat, missLat;
    double retired = 0.0;
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JobRecord &r = records[i];
        if (!r.sent)
            continue;
        ++out.attempted;
        if (!r.done) {
            ++out.failed;
            out.notes.push_back("FAIL job " + std::to_string(i) +
                                (r.admitted ? " not done" : " refused"));
            continue;
        }
        lat.push_back(r.latencyMs);
        submit.push_back(r.submitMs);
        (r.hit ? hitLat : missLat).push_back(r.latencyMs);
        if (r.hit)
            continue;
        retired += metricOf(r.metrics, "run.retired");
        // New configurations among the first minJobs are always sent and
        // always miss, so the replay sample repeats for a given seed.
        if (jobs[i].repeat || i >= minJobs)
            continue;
        misses.push_back(i);
    }

    std::string experiments;
    adore::report::readFile(opt.root + "/EXPERIMENTS.md", experiments);

    // Replays: a seeded sample of distinct misses, one per registry
    // workload and level (so the tier ratio always covers the same
    // programs), re-run one-shot in the served tier (byte-identical)
    // and the interpreter, best of kReplayRounds each.
    adore::Rng pick(opt.seed ^ 0x7e91a7ULL);
    std::vector<std::size_t> shuffled = misses;
    for (std::size_t k = shuffled.size(); k > 1; --k)
        std::swap(shuffled[k - 1], shuffled[pick.below(k)]);
    std::vector<std::size_t> sample;
    std::set<std::string> covered;
    for (std::size_t i : shuffled) {
        const std::string &wl = jobs[i].req.workload;
        if (!wl.empty() && covered.insert(wl + jobs[i].req.opt).second)
            sample.push_back(i);
    }
    if (opt.small && sample.size() > 4)
        sample.resize(4);
    std::atomic<bool> never{false};
    std::vector<adore::hir::Program> progs;
    for (std::size_t i : sample)
        progs.push_back(adore::workloads::make(jobs[i].req.workload));
    std::vector<Replay> replays;
    for (std::size_t k = 0; k < sample.size(); ++k) {
        const adore::serve::JobRequest &req = jobs[sample[k]].req;
        Replay served{&progs[k],
                      adore::serve::buildRunConfig(req, &never, req.maxCycles,
                                                   cfg.cancelCheckPeriod),
                      "job" + std::to_string(sample[k]) + "/served"};
        Replay interp = served;
        interp.cfg.machine.cpu.execTier = adore::ExecTier::Interpreter;
        interp.key = "job" + std::to_string(sample[k]) + "/interp";
        replays.push_back(served);
        replays.push_back(interp);
    }
    std::vector<TimedRun> runs = replayFastest(replays, tracer);
    double interpCpu = 0.0, directCpu = 0.0;
    for (std::size_t k = 0; k < sample.size(); ++k) {
        std::size_t i = sample[k];
        const TimedRun &served = runs[2 * k];
        const TimedRun &interp = runs[2 * k + 1];
        directCpu += served.cpuS;
        interpCpu += interp.cpuS;

        std::string expect;
        json::compact(adore::Experiment::metricsJson(served.m), expect);
        std::vector<std::string> bad;
        adore::invariants::diffIdentity(served.m, interp.m, jobs[i].req.adore,
                                        bad);
        if (expect != records[i].metrics)
            bad.insert(bad.begin(), "served metrics differ from one-shot");
        if (!bad.empty()) {
            ++out.failed;
            out.notes.push_back("FAIL replay of job " + std::to_string(i) +
                                ": " + bad.front());
        }
    }

    // The paper's Fig. 7(a) comparison: restricted O2 at dataSeed 1, the
    // configuration EXPERIMENTS.md publishes, full length, without and
    // with ADORE, one-shot on this thread.  The served jobs cannot give
    // it: they stop at kMaxCycles, mostly before ADORE has optimised a
    // phase, and the protocol compiles the base arm without the
    // registers ADORE reserves.
    std::vector<std::pair<std::string, double>> gains;
    for (const std::string &name :
         opt.small ? std::vector<std::string>{"gzip"} : kFig07aNames) {
        adore::hir::Program prog = adore::workloads::make(name);
        adore::RunMetrics m[2];
        for (bool adoreOn : {false, true}) {
            adore::RunConfig rc;
            rc.compile = restrictedOptions(adore::OptLevel::O2, 1);
            rc.machine.cpu.execTier = adore::ExecTier::DirectThreaded;
            if (adoreOn) {
                rc.adore = true;
                rc.adoreConfig = adore::Experiment::defaultAdoreConfig();
            }
            {
                Tracer::Scope span(tracer, "Experiment::run", 0,
                                   name + "/direct/" +
                                       (adoreOn ? "adore" : "base"));
                m[adoreOn] = adore::Experiment::run(prog, rc);
            }
            ++out.attempted;
            std::vector<std::string> bad;
            if (!m[adoreOn].halted)
                bad.push_back("did not halt");
            adore::invariants::checkSelfConsistent(m[adoreOn], "", bad);
            if (!bad.empty()) {
                ++out.failed;
                out.notes.push_back("FAIL fig07a run of " + name + ": " +
                                    bad.front());
            }
        }
        gains.emplace_back(
            name, adore::Experiment::speedup(m[0].cycles, m[1].cycles) *
                      100.0);
    }

    double hits = daemonMetric("serve.cache.hits");
    double cacheMisses = daemonMetric("serve.cache.misses");
    double shed = daemonMetric("serve.jobs.rejected_full");
    double completed = static_cast<double>(lat.size());

    out.layer("host.wall_s", wall, "s");
    out.layer("host.cpu_s", cpu, "s");
    out.e2e("peak_rss_mb", peakRssMb(), "MiB");
    out.e2e("setup_s", fastest(setups), "s");
    out.e2e("ok_share",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(std::max<std::uint64_t>(
                          out.attempted, 1)),
            "share");
    out.layer("host.sim_mips", retired / wall / 1e6, "MIPS");
    out.e2e("tier_speedup", directCpu > 0 ? interpCpu / directCpu : 0.0,
            "x");
    out.e2e("adore_speedup_geomean", geomeanSpeedup(gains), "x");
    out.notes.push_back(kFidelityNote);
    out.e2e("paper_gap_pp", paperGapPp(gains, paperFig07a(experiments)),
            "pp");
    out.layer("host.jobs_per_s", completed / wall, "1/s");
    out.layer("host.job_p50_ms", percentile(lat, 50), "ms");
    out.layer("host.job_p99_ms", percentile(lat, 99), "ms");
    out.notes.push_back(
        "jobs: " + std::to_string(loop.sent) + " sent by " +
        std::to_string(kClients) + " closed-loop clients to " +
        std::to_string(kWorkers) + " workers; latency samples " +
        std::to_string(lat.size()) + " (" + std::to_string(hitLat.size()) +
        " cache hits, " + std::to_string(missLat.size()) +
        " misses); replays " + std::to_string(sample.size()) +
        "; fig07a pairs " + std::to_string(gains.size()));

    if (!opt.trace)
        return out;
    out.layer("serve.submit_ms_p50", percentile(submit, 50), "ms");
    out.layer("serve.hit_ms_p50", percentile(hitLat, 50), "ms");
    out.layer("serve.miss_ms_p50", percentile(missLat, 50), "ms");
    out.layer("serve.cache_hit_share",
              hits + cacheMisses > 0 ? hits / (hits + cacheMisses) : 0.0,
              "share");
    double submitted = daemonMetric("serve.jobs.submitted");
    out.layer("serve.shed_share", shed / std::max(1.0, submitted + shed),
              "share");
    out.layer("serve.worker_busy_share",
              (cpu - loop.clientCpu) / (wall * kWorkers), "share");
    out.layer("serve.retries", daemonMetric("serve.jobs.retries"), "count");
    out.layer("serve.dead_letters", daemonMetric("serve.jobs.dead_letter"),
              "count");
    out.layer("workloads.make_s", fastest(makes), "s");
    out.layer("workloads.generate_s", fastest(generates), "s");
    out.layer("compiler.compile_s", fastest(compiles), "s");
    out.layer("trace.overhead_s", overheadS, "s");
    return out;
}

} // namespace perfbench

/**
 * @file
 * adored: the persistent simulation-serving daemon (DESIGN.md §15).
 *
 *   adored                          line-delimited JSON on stdin/stdout
 *   adored --socket /tmp/adored.sock
 *                                   same protocol over an AF_UNIX socket
 *   adored --selftest-soak N [--service-faults] [--sigterm-self]
 *                                   deterministic end-to-end soak: N
 *                                   jobs through the full daemon, every
 *                                   result verified bit-identical to a
 *                                   one-shot Experiment::run, every
 *                                   dead letter machine-readable
 *
 * SIGTERM/SIGINT trigger a graceful drain: admission stops, every
 * admitted job completes (or dead-letters with a recorded reason), the
 * final metrics snapshot is flushed, and the process exits 0.
 *
 * The soak is the repo's serving robustness gate (ci.sh): with the
 * service fault channels on (queue stalls, worker aborts, cache
 * corruption-on-read) it proves no admitted job is ever lost and no
 * corrupted cache entry is ever served.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/server.hh"
#include "workloads/generator.hh"
#include "workloads/workloads.hh"

using namespace adore;
using namespace adore::serve;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "       %s --selftest-soak N [soak options]\n"
        "options:\n"
        "  --socket PATH        serve on an AF_UNIX socket instead of "
        "stdin\n"
        "  --shards N           queue shards (default 4)\n"
        "  --workers N          worker lanes (default: ADORE_JOBS/"
        "hardware)\n"
        "  --admission-limit N  max queued+running jobs (default 256)\n"
        "  --cache-capacity N   result-cache entries (default 512)\n"
        "  --max-attempts N     attempt budget per job (default 3)\n"
        "  --deadline-ms N      per-attempt host deadline (default "
        "60000)\n"
        "  --max-cycles N       default simulated-cycle budget\n"
        "  --metrics-out PATH   flush Prometheus metrics here on drain\n"
        "  --fault-seed S       service-fault seed (default 42)\n"
        "  --service-faults     enable the service fault channels\n"
        "  --stall-rate R / --abort-rate R / --corrupt-rate R\n"
        "soak options:\n"
        "  --seed S             job-mix seed (default 42)\n"
        "  --sigterm-self       raise SIGTERM mid-soak and verify the "
        "drain\n",
        argv0, argv0);
    return 2;
}

/** Deterministic job mix: index → request.  Mostly registry workloads
 *  (heavy cache-hit traffic), every 7th an inline generated kernel. */
JobRequest
soakJob(std::uint64_t seed, std::uint64_t i)
{
    JobRequest req;
    if (i % 7 == 3) {
        workloads::GeneratorConfig gen;
        gen.seed = 1000 + (seed + i) % 5;
        req.kernel = workloads::renderProgram(workloads::generate(gen));
    } else {
        static const char *const kNames[] = {"mcf", "art", "equake",
                                             "bzip2"};
        req.workload = kNames[(seed + i) % 4];
    }
    req.opt = (i % 4) < 2 ? "o2" : "o3";
    req.adore = (i % 2) == 1;
    req.dataSeed = 1 + i % 3;
    req.maxCycles = 3'000'000;
    return req;
}

int
selftestSoak(DaemonConfig cfg, std::uint64_t jobs, std::uint64_t seed,
             bool sigtermSelf)
{
    Daemon daemon(cfg);

    // Submit the whole mix, honoring load shedding: a queue_full
    // rejection waits the advertised retry_after and resubmits, so
    // every job is eventually admitted (or the soak stops at SIGTERM).
    std::vector<std::uint64_t> ids;
    std::vector<JobRequest> reqs;
    std::uint64_t rejections = 0;
    for (std::uint64_t i = 0; i < jobs; ++i) {
        if (sigtermSelf && i == jobs / 2)
            std::raise(SIGTERM);
        if (g_stop)
            break;
        JobRequest req = soakJob(seed, i);
        while (true) {
            Daemon::SubmitResult res = daemon.submit(req);
            if (res.ok) {
                ids.push_back(res.id);
                reqs.push_back(req);
                break;
            }
            if (res.error == "queue_full") {
                ++rejections;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    res.retryAfterMs ? res.retryAfterMs : 5));
                continue;
            }
            std::fprintf(stderr,
                         "soak: job %llu rejected: %s (%s)\n",
                         static_cast<unsigned long long>(i),
                         res.error.c_str(), res.detail.c_str());
            return 1;
        }
    }

    daemon.drain();

    // Reference results: one one-shot Experiment::run per unique cache
    // key, through the same buildRunConfig the daemon used — the
    // bit-identity oracle.  Fanned out via runManyChecked.
    std::map<std::string, std::size_t> keyToRef;
    std::vector<std::string> refKeys;
    std::vector<JobRequest> refReqs;
    for (const JobRequest &req : reqs) {
        std::uint64_t maxCycles =
            req.maxCycles ? req.maxCycles : cfg.defaultMaxCycles;
        std::string key =
            canonicalKey(req, resolveTier(req), maxCycles);
        if (keyToRef.emplace(key, refReqs.size()).second) {
            refKeys.push_back(key);
            refReqs.push_back(req);
        }
    }
    std::atomic<bool> never{false};
    std::vector<hir::Program> refProgs(refReqs.size());
    std::vector<RunSpec> refSpecs(refReqs.size());
    for (std::size_t r = 0; r < refReqs.size(); ++r) {
        const JobRequest &req = refReqs[r];
        if (!req.workload.empty()) {
            refProgs[r] = workloads::make(req.workload);
        } else {
            std::string err;
            if (!workloads::parseProgram(req.kernel, refProgs[r],
                                         err)) {
                std::fprintf(stderr, "soak: reference kernel: %s\n",
                             err.c_str());
                return 1;
            }
        }
        refSpecs[r].prog = &refProgs[r];
        refSpecs[r].cfg = buildRunConfig(
            req, &never,
            req.maxCycles ? req.maxCycles : cfg.defaultMaxCycles,
            cfg.cancelCheckPeriod);
    }
    std::vector<RunOutcome> refOutcomes =
        Experiment::runManyChecked(refSpecs);
    std::map<std::string, std::string> expected;
    for (std::size_t r = 0; r < refOutcomes.size(); ++r) {
        if (!refOutcomes[r].ok) {
            std::fprintf(stderr, "soak: reference run failed: %s\n",
                         refOutcomes[r].error.c_str());
            return 1;
        }
        expected[refKeys[r]] =
            Experiment::metricsJson(refOutcomes[r].metrics);
    }

    // Verdict: every admitted job terminal, Done ⇒ bit-identical to
    // the reference, DeadLetter ⇒ machine-readable reason.
    std::uint64_t done = 0, deadLetter = 0, cacheHits = 0;
    std::uint64_t mismatches = 0, lost = 0, badRecords = 0;
    for (std::size_t n = 0; n < ids.size(); ++n) {
        std::optional<JobStatus> s = daemon.status(ids[n]);
        if (!s) {
            ++lost;
            continue;
        }
        if (s->state == JobState::Done) {
            ++done;
            if (s->cacheHit)
                ++cacheHits;
            const JobRequest &req = reqs[n];
            std::string key = canonicalKey(
                req, resolveTier(req),
                req.maxCycles ? req.maxCycles : cfg.defaultMaxCycles);
            if (s->resultJson != expected[key]) {
                ++mismatches;
                if (mismatches == 1) {
                    std::fprintf(stderr,
                                 "soak: job %llu (key %s) diverged "
                                 "from its one-shot reference\n",
                                 static_cast<unsigned long long>(
                                     ids[n]),
                                 s->cacheKey.c_str());
                }
            }
        } else if (s->state == JobState::DeadLetter) {
            ++deadLetter;
            if (s->failures.empty())
                ++badRecords;
            for (const FailureRecord &f : s->failures) {
                if (f.code.empty())
                    ++badRecords;
            }
        } else {
            ++lost;  // non-terminal after drain = lost
        }
    }

    bool ok = lost == 0 && mismatches == 0 && badRecords == 0 &&
              done + deadLetter == ids.size();
    std::printf(
        "{\"tool\": \"adored\", \"mode\": \"selftest-soak\", "
        "\"jobs_requested\": %llu, \"jobs_admitted\": %zu, "
        "\"done\": %llu, \"dead_letter\": %llu, \"lost\": %llu, "
        "\"cache_hits\": %llu, \"result_mismatches\": %llu, "
        "\"bad_dead_letter_records\": %llu, "
        "\"admission_rejections\": %llu, "
        "\"sigterm_drain\": %s, \"ok\": %s}\n",
        static_cast<unsigned long long>(jobs), ids.size(),
        static_cast<unsigned long long>(done),
        static_cast<unsigned long long>(deadLetter),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(cacheHits),
        static_cast<unsigned long long>(mismatches),
        static_cast<unsigned long long>(badRecords),
        static_cast<unsigned long long>(rejections),
        sigtermSelf ? "true" : "false", ok ? "true" : "false");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonConfig cfg;
    std::string socketPath;
    std::uint64_t soakJobs = 0;
    std::uint64_t soakSeed = 42;
    bool selftest = false;
    bool sigtermSelf = false;
    bool serviceFaults = false;
    cfg.faults.seed = 42;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket")
            socketPath = next();
        else if (arg == "--shards")
            cfg.shards = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--workers")
            cfg.workers = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--admission-limit")
            cfg.admissionLimit =
                static_cast<std::size_t>(std::atoll(next()));
        else if (arg == "--cache-capacity")
            cfg.cacheCapacity =
                static_cast<std::size_t>(std::atoll(next()));
        else if (arg == "--max-attempts")
            cfg.maxAttempts =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (arg == "--deadline-ms")
            cfg.defaultDeadlineMs =
                static_cast<std::uint64_t>(std::atoll(next()));
        else if (arg == "--max-cycles")
            cfg.defaultMaxCycles =
                static_cast<std::uint64_t>(std::atoll(next()));
        else if (arg == "--metrics-out")
            cfg.metricsFlushPath = next();
        else if (arg == "--fault-seed")
            cfg.faults.seed =
                static_cast<std::uint64_t>(std::atoll(next()));
        else if (arg == "--service-faults")
            serviceFaults = true;
        else if (arg == "--stall-rate")
            cfg.faults.queueStallRate = std::atof(next());
        else if (arg == "--abort-rate")
            cfg.faults.workerAbortRate = std::atof(next());
        else if (arg == "--corrupt-rate")
            cfg.faults.cacheCorruptRate = std::atof(next());
        else if (arg == "--selftest-soak") {
            selftest = true;
            soakJobs = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--seed")
            soakSeed = static_cast<std::uint64_t>(std::atoll(next()));
        else if (arg == "--sigterm-self")
            sigtermSelf = true;
        else if (arg == "--help" || arg == "-h")
            return usage(argv[0]);
        else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage(argv[0]);
        }
    }

    if (serviceFaults && !cfg.faults.any()) {
        // Default soak rates: frequent enough to exercise every
        // recovery path, bounded enough that retries almost always
        // succeed (a few legitimate dead letters are expected and
        // verified machine-readable).
        cfg.faults.queueStallRate = 0.05;
        cfg.faults.workerAbortRate = 0.10;
        cfg.faults.cacheCorruptRate = 0.05;
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    if (selftest)
        return selftestSoak(cfg, soakJobs, soakSeed, sigtermSelf);

    Daemon daemon(cfg);
    if (!socketPath.empty())
        return runSocketServer(daemon, socketPath, &g_stop);
    return runStdinServer(daemon, STDIN_FILENO, STDOUT_FILENO, &g_stop);
}

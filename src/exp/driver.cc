/**
 * @file
 * damn_bench driver implementation.
 */

#include "exp/driver.hh"

#include <cerrno>
#include <charconv>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "sim/parallel.hh"

namespace damn::exp {

namespace {

const char kUsage[] =
    "usage: damn_bench [options]\n"
    "\n"
    "Runs the paper's evaluation experiments through one driver and\n"
    "reports every metric through a uniform schema.\n"
    "\n"
    "  --list             list registered experiments and exit\n"
    "  --only=GLOB        run only experiments whose name matches GLOB\n"
    "                     (shell-style * and ?, e.g. --only='fig4*')\n"
    "  --schemes=a,b,...  restrict the scheme axis (names as printed:\n"
    "                     iommu-off, deferred, strict, shadow, damn)\n"
    "  --backend=a,b,...  set the IOMMU backend axis (vtd, smmuv3);\n"
    "                     default: each experiment's native axis\n"
    "  --jobs=N           run (experiment, rep) units and their\n"
    "                     configuration cells on N worker threads\n"
    "                     (default: one per hardware thread; results\n"
    "                     are byte-identical for any N)\n"
    "  --repeat=N         run each experiment N times, varying the seed\n"
    "                     (rows gain a rep=<i> parameter)\n"
    "  --warmup-ms=N      override every experiment's warmup window\n"
    "  --measure-ms=N     override every experiment's measure window\n"
    "  --seed=N           base seed for stochastic experiments (42)\n"
    "  --json=PATH        also write results as JSON (schema v2,\n"
    "                     documented in EXPERIMENTS.md; deterministic)\n"
    "  --trace=PATH       record trace events and write a Chrome\n"
    "                     trace-event JSON (chrome://tracing /\n"
    "                     Perfetto; deterministic per seed)\n"
    "  --help             this text\n";

bool
parseU64(const std::string &text, std::uint64_t *out)
{
    if (text.empty())
        return false;
    const auto res = std::from_chars(text.data(),
                                     text.data() + text.size(), *out);
    return res.ec == std::errc() &&
        res.ptr == text.data() + text.size();
}

/** Split "--key=value" arguments; value empty for bare flags. */
bool
splitArg(const std::string &arg, std::string *key, std::string *value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
        *key = arg.substr(2);
        value->clear();
    } else {
        *key = arg.substr(2, eq - 2);
        *value = arg.substr(eq + 1);
    }
    return true;
}

std::string
paramsLabel(const Run &run)
{
    std::string out;
    for (const auto &[k, v] : run.params) {
        if (!out.empty())
            out += ' ';
        out += k + "=" + v;
    }
    return out;
}

} // namespace

bool
parseArgs(int argc, const char *const *argv, DriverOptions *opts,
          std::string *err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string key, value;
        if (!splitArg(arg, &key, &value)) {
            *err = "unrecognized argument: " + arg;
            return false;
        }
        std::uint64_t n = 0;
        if (key == "list") {
            opts->list = true;
        } else if (key == "help") {
            opts->help = true;
        } else if (key == "only") {
            opts->only = value;
        } else if (key == "schemes") {
            std::vector<dma::SchemeKind> selected;
            std::size_t start = 0;
            while (start <= value.size()) {
                std::size_t comma = value.find(',', start);
                if (comma == std::string::npos)
                    comma = value.size();
                const std::string name =
                    value.substr(start, comma - start);
                dma::SchemeKind k;
                if (!schemeFromName(name, &k)) {
                    *err = "unknown scheme: '" + name + "'";
                    return false;
                }
                selected.push_back(k);
                start = comma + 1;
            }
            opts->schemes = std::move(selected);
        } else if (key == "backend") {
            std::vector<iommu::BackendKind> selected;
            std::size_t start = 0;
            while (start <= value.size()) {
                std::size_t comma = value.find(',', start);
                if (comma == std::string::npos)
                    comma = value.size();
                const std::string name =
                    value.substr(start, comma - start);
                iommu::BackendKind k;
                if (!iommu::backendFromName(name, &k)) {
                    *err = "unknown backend: '" + name + "'";
                    return false;
                }
                selected.push_back(k);
                start = comma + 1;
            }
            opts->backends = std::move(selected);
        } else if (key == "jobs") {
            if (!parseU64(value, &n) || n == 0) {
                *err = "--jobs needs a positive integer";
                return false;
            }
            opts->jobs = unsigned(n);
        } else if (key == "repeat") {
            if (!parseU64(value, &n) || n == 0) {
                *err = "--repeat needs a positive integer";
                return false;
            }
            opts->repeat = unsigned(n);
        } else if (key == "warmup-ms") {
            if (!parseU64(value, &n)) {
                *err = "--warmup-ms needs an integer";
                return false;
            }
            opts->warmupNs = n * sim::kNsPerMs;
        } else if (key == "measure-ms") {
            if (!parseU64(value, &n) || n == 0) {
                *err = "--measure-ms needs a positive integer";
                return false;
            }
            opts->measureNs = n * sim::kNsPerMs;
        } else if (key == "seed") {
            if (!parseU64(value, &n)) {
                *err = "--seed needs an integer";
                return false;
            }
            opts->seed = n;
        } else if (key == "json") {
            if (value.empty()) {
                *err = "--json needs a path";
                return false;
            }
            opts->jsonPath = value;
        } else if (key == "trace") {
            if (value.empty()) {
                *err = "--trace needs a path";
                return false;
            }
            opts->tracePath = value;
        } else {
            *err = "unknown option: --" + key;
            return false;
        }
    }
    return true;
}

std::vector<const Experiment *>
selectExperiments(const DriverOptions &opts)
{
    std::vector<const Experiment *> out;
    for (const Experiment *e : allExperiments())
        if (opts.only.empty() || globMatch(opts.only, e->name))
            out.push_back(e);
    return out;
}

unsigned
effectiveJobs(const DriverOptions &opts)
{
    if (opts.jobs != 0)
        return opts.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

Report
runExperiments(const DriverOptions &opts)
{
    Report report;
    report.opts = opts;
    const std::vector<const Experiment *> selected =
        selectExperiments(opts);

    // One (experiment, rep) unit, experiment-major in registration
    // order.  Thread-confined by construction: every piece of mutable
    // simulation state (Engine, Machine, Stats, Tracer, FaultInjector,
    // RNG streams) lives in Contexts the run function or a cell
    // creates itself; the only shared data are the read-only
    // registry/options and the unit's own slots below.  The RunCtx
    // outlives phase 2, because queued cells capture it.
    struct Unit
    {
        Unit(const DriverOptions &o, const Experiment &e, unsigned rep)
            : ctx{e,
                  work::RunWindow{
                      o.warmupNs ? o.warmupNs : e.defaultWindow.warmupNs,
                      o.measureNs ? o.measureNs
                                  : e.defaultWindow.measureNs,
                  },
                  o.schemes,
                  o.seed + rep,
                  out,
                  !o.tracePath.empty(),
                  o.backends,
                  {}}
        {
        }

        Collector out;
        RunCtx ctx;
        std::exception_ptr error;
        std::vector<Collector> cellOut;
        std::vector<std::exception_ptr> cellErrors;
    };
    std::deque<Unit> units;
    for (const Experiment *e : selected)
        for (unsigned rep = 0; rep < opts.repeat; ++rep)
            units.emplace_back(opts, *e, rep);

    // Phase 1: the run functions, which write runs to ctx.out and
    // queue cells.  Phase 2: every queued cell of every unit that ran
    // cleanly, in one flat list.  Results land in a slot per unit and
    // per cell, so the merge reads them back in exactly the serial
    // order no matter which worker finished what when.
    const unsigned jobs = effectiveJobs(opts);
    sim::parallelFor(units.size(), jobs, [&](std::size_t i) {
        Unit &u = units[i];
        try {
            u.ctx.exp.run(u.ctx);
        } catch (...) {
            u.error = std::current_exception();
        }
    });
    std::vector<std::pair<Unit *, std::size_t>> cells;
    for (Unit &u : units) {
        if (u.error)
            continue;
        u.cellOut.resize(u.ctx.cells.size());
        u.cellErrors.resize(u.ctx.cells.size());
        for (std::size_t c = 0; c < u.ctx.cells.size(); ++c)
            cells.emplace_back(&u, c);
    }
    sim::parallelFor(cells.size(), jobs, [&](std::size_t i) {
        auto [u, c] = cells[i];
        try {
            u->ctx.cells[c].fn(u->cellOut[c]);
        } catch (...) {
            u->cellErrors[c] = std::current_exception();
        }
    });

    // Surface the first failure in unit order (deterministic even
    // when several units or cells threw).
    for (const Unit &u : units) {
        if (u.error)
            std::rethrow_exception(u.error);
        for (const std::exception_ptr &ep : u.cellErrors)
            if (ep)
                std::rethrow_exception(ep);
    }

    report.experiments.reserve(selected.size());
    auto unit = units.begin();
    for (const Experiment *e : selected) {
        ExperimentResult res;
        res.exp = e;
        for (unsigned rep = 0; rep < opts.repeat; ++rep, ++unit) {
            const auto take = [&](Collector &c) {
                for (Run &run : c.take()) {
                    if (opts.repeat > 1)
                        run.params.insert(run.params.begin(),
                                          {"rep", std::to_string(rep)});
                    res.runs.push_back(std::move(run));
                }
            };
            take(unit->out);
            for (Collector &c : unit->cellOut)
                take(c);
        }
        report.experiments.push_back(std::move(res));
    }
    return report;
}

std::vector<ResultRow>
flatten(const Report &report)
{
    std::vector<ResultRow> rows;
    std::size_t total = 0;
    for (const ExperimentResult &er : report.experiments)
        for (const Run &run : er.runs)
            total += run.metrics.size();
    rows.reserve(total);
    for (const ExperimentResult &er : report.experiments) {
        for (const Run &run : er.runs) {
            for (const Metric &m : run.metrics) {
                ResultRow row;
                row.experiment = er.exp->name;
                row.scheme = run.scheme;
                row.params = run.params;
                row.metric = m.name;
                row.value = m.value;
                row.unit = m.unit;
                row.stats = &run.stats;
                rows.push_back(std::move(row));
            }
        }
    }
    return rows;
}

Json
reportJson(const Report &report)
{
    Json doc = Json::object();
    doc.set("schema_version", kJsonSchemaVersion);
    doc.set("generator", "damn_bench");
    doc.set("seed", report.opts.seed);
    doc.set("repeat", std::uint64_t(report.opts.repeat));
    Json schemes = Json::array();
    for (const dma::SchemeKind k : report.opts.schemes)
        schemes.push(dma::schemeKindName(k));
    doc.set("schemes", std::move(schemes));
    // Backward-compatible v2 extension: the backend axis appears in
    // the header (and as a per-run "backend" param) only when it
    // differs from the pre-backend baseline {vtd}, so default and
    // --backend=vtd invocations serialize byte-identically to older
    // versions.
    if (!(report.opts.backends.empty() ||
          (report.opts.backends.size() == 1 &&
           report.opts.backends[0] == iommu::BackendKind::Vtd))) {
        Json backends = Json::array();
        for (const iommu::BackendKind k : report.opts.backends)
            backends.push(iommu::backendKindName(k));
        doc.set("backends", std::move(backends));
    }
    doc.set("warmup_ms_override",
            std::uint64_t(report.opts.warmupNs / sim::kNsPerMs));
    doc.set("measure_ms_override",
            std::uint64_t(report.opts.measureNs / sim::kNsPerMs));

    Json experiments = Json::array();
    experiments.reserve(report.experiments.size());
    for (const ExperimentResult &er : report.experiments) {
        Json exp = Json::object();
        exp.set("name", er.exp->name);
        exp.set("title", er.exp->title);
        exp.set("paper", er.exp->paper);
        Json axes = Json::array();
        axes.reserve(er.exp->axes.size());
        for (const std::string &a : er.exp->axes)
            axes.push(a);
        exp.set("axes", std::move(axes));

        Json runs = Json::array();
        runs.reserve(er.runs.size());
        for (const Run &run : er.runs) {
            Json jr = Json::object();
            jr.set("scheme", run.scheme);
            Json params = Json::object();
            for (const auto &[k, v] : run.params)
                params.set(k, v);
            jr.set("params", std::move(params));
            Json metrics = Json::object();
            for (const Metric &m : run.metrics) {
                Json jm = Json::object();
                jm.set("value", m.value);
                jm.set("unit", m.unit);
                metrics.set(m.name, std::move(jm));
            }
            jr.set("metrics", std::move(metrics));
            Json stats = Json::object();
            for (const auto &[k, v] : run.stats)
                stats.set(k, v);
            jr.set("stats", std::move(stats));
            if (run.trace.hasData()) {
                const sim::TraceBundle &tb = run.trace;
                Json attr = Json::object();
                attr.set("total_busy_ns", tb.totalBusyNs);
                attr.set("total_cycles", tb.totalCycles);
                attr.set("attributed_ns", tb.attributedNs);
                attr.set("coverage_pct", tb.coveragePct());
                attr.set("dropped_events", tb.droppedEvents);
                Json cats = Json::object();
                for (const sim::TraceBundle::Category &c :
                     tb.categories) {
                    Json jc = Json::object();
                    jc.set("ns", c.ns);
                    jc.set("cycles", c.cycles);
                    jc.set("bytes", c.bytes);
                    jc.set("events", c.events);
                    cats.set(c.name, std::move(jc));
                }
                attr.set("categories", std::move(cats));
                jr.set("attribution", std::move(attr));
            }
            runs.push(std::move(jr));
        }
        exp.set("runs", std::move(runs));
        experiments.push(std::move(exp));
    }
    doc.set("experiments", std::move(experiments));
    return doc;
}

std::string
chromeTraceForReport(const Report &report)
{
    std::vector<sim::TraceProcess> procs;
    for (const ExperimentResult &er : report.experiments) {
        for (const Run &run : er.runs) {
            if (run.trace.events.empty())
                continue;
            sim::TraceProcess p;
            p.name = er.exp->name + "/" + run.scheme;
            const std::string params = paramsLabel(run);
            if (!params.empty())
                p.name += " " + params;
            p.bundle = &run.trace;
            procs.push_back(std::move(p));
        }
    }
    return sim::chromeTraceJson(procs);
}

void
printReport(const Report &report, std::FILE *out)
{
    for (const ExperimentResult &er : report.experiments) {
        std::fprintf(out, "\n==== %s (%s) ====\n%s\n",
                     er.exp->name.c_str(), er.exp->paper.c_str(),
                     er.exp->title.c_str());
        std::fprintf(out, "%-12s %-28s %-20s %14s %s\n", "scheme",
                     "params", "metric", "value", "unit");
        std::fprintf(out, "%s\n", std::string(86, '-').c_str());
        for (const Run &run : er.runs) {
            const std::string params = paramsLabel(run);
            for (const Metric &m : run.metrics) {
                std::fprintf(out, "%-12s %-28s %-20s %14.3f %s\n",
                             run.scheme.c_str(), params.c_str(),
                             m.name.c_str(), m.value, m.unit.c_str());
            }
        }
    }
}

void
printList(const DriverOptions &opts, std::FILE *out)
{
    std::fprintf(out, "%-20s %-12s %s\n", "experiment", "paper",
                 "title");
    std::fprintf(out, "%s\n", std::string(76, '-').c_str());
    for (const Experiment *e : selectExperiments(opts))
        std::fprintf(out, "%-20s %-12s %s\n", e->name.c_str(),
                     e->paper.c_str(), e->title.c_str());
}

int
runDriver(int argc, const char *const *argv)
{
    DriverOptions opts;
    std::string err;
    if (!parseArgs(argc, argv, &opts, &err)) {
        std::fprintf(stderr, "damn_bench: %s\n%s", err.c_str(), kUsage);
        return 2;
    }
    if (opts.help) {
        std::fprintf(stdout, "%s", kUsage);
        return 0;
    }
    if (opts.list) {
        printList(opts, stdout);
        return 0;
    }
    const auto selected = selectExperiments(opts);
    if (selected.empty()) {
        std::fprintf(stderr,
                     "damn_bench: no experiment matches '%s' "
                     "(try --list)\n",
                     opts.only.c_str());
        return 1;
    }

    const Report report = runExperiments(opts);
    printReport(report, stdout);

    if (!opts.jsonPath.empty()) {
        const std::string text = reportJson(report).dump();
        std::FILE *f = std::fopen(opts.jsonPath.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "damn_bench: cannot write %s: %s\n",
                         opts.jsonPath.c_str(), std::strerror(errno));
            return 1;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::fprintf(stdout, "\nwrote %s (%zu bytes)\n",
                     opts.jsonPath.c_str(), text.size());
    }

    if (!opts.tracePath.empty()) {
        const std::string text = chromeTraceForReport(report);
        std::FILE *f = std::fopen(opts.tracePath.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "damn_bench: cannot write %s: %s\n",
                         opts.tracePath.c_str(), std::strerror(errno));
            return 1;
        }
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
        std::fprintf(stdout, "wrote %s (%zu bytes)\n",
                     opts.tracePath.c_str(), text.size());
    }
    return 0;
}

} // namespace damn::exp

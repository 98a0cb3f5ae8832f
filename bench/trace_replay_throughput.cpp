/**
 * @file
 * Trace-replay throughput microbench: how fast records reach a
 * consumer from (a) the synthetic generator, built and drained through
 * nextBatch() the way Simulator::runImpl and TraceStore pull it, one
 * workload per category, (b) a materialized in-memory trace pulled one
 * record at a time, and (c) the same trace pulled through the batched
 * nextBatch() hot path the simulator uses.
 *
 * Prints a table plus the generator's ns/record per category, and
 * writes BENCH_trace_replay.json (records/sec per path, generator
 * ns/record, and the batched-vs-generator speedup) so CI can archive
 * the perf trajectory of the replay hot path.
 *
 * Usage: trace_replay_throughput [--records N] [--reps N] [--out F]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "sim/simulator.hh"
#include "trace/trace_store.hh"
#include "util/atomic_file.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/table.hh"

using namespace chirp;

namespace
{

/** Best-of-reps wall-clock records/sec for one replay strategy. */
template <typename Fn>
double
throughput(std::uint64_t records, unsigned reps, Fn &&run)
{
    double best = 0.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        run();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        const double rate =
            static_cast<double>(records) / elapsed.count();
        best = std::max(best, rate);
    }
    return best;
}

/** Fold a record into a sink so the compiler cannot drop the pull. */
inline std::uint64_t
consume(const TraceRecord &rec, std::uint64_t sink)
{
    return sink ^ (rec.pc + rec.effAddr + rec.target +
                   static_cast<std::uint64_t>(rec.cls));
}

std::uint64_t
parseCount(const char *text,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t value = 0;
    if (!parseUnsigned(text, max, value) || value == 0)
        chirp_fatal("expected an integer from 1 to ", max, ", got '",
                    text, "'");
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t records = 2'000'000;
    unsigned reps = 3;
    std::string out = "BENCH_trace_replay.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                chirp_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--records") {
            records = parseCount(value());
        } else if (arg == "--reps") {
            reps = static_cast<unsigned>(
                parseCount(value(), std::numeric_limits<unsigned>::max()));
        } else if (arg == "--out") {
            out = value();
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--records N] [--reps N] [--out F]\n",
                        argv[0]);
            return 0;
        } else {
            chirp_fatal("unknown argument '", arg, "' (try --help)");
        }
    }

    WorkloadConfig workload;
    workload.category = Category::Spec;
    workload.seed = 0xC41B7;
    workload.length = records;
    workload.name = "replay_bench";

    std::printf("== trace replay throughput ==\n");
    std::printf("%llu records per workload, best of %u reps\n\n",
                static_cast<unsigned long long>(records), reps);

    volatile std::uint64_t guard = 0;

    // Path A: the generator, paid on every generate-per-job run and on
    // every cold trace-cache fill.  Each rep builds the workload and
    // drains it in simulator-sized batches, one workload per category.
    constexpr auto kCategories =
        static_cast<std::size_t>(Category::NumCategories);
    double gen_ns[kCategories];
    double gen_ns_sum = 0.0;
    for (std::size_t c = 0; c < kCategories; ++c) {
        WorkloadConfig config = workload;
        config.category = static_cast<Category>(c);
        const double rate = throughput(records, reps, [&] {
            const auto program = buildWorkload(config);
            TraceRecord buf[kReplayBatch];
            std::uint64_t sink = 0;
            std::size_t got;
            while ((got = program->nextBatch(buf, kReplayBatch)) > 0) {
                for (std::size_t i = 0; i < got; ++i)
                    sink = consume(buf[i], sink);
            }
            guard = guard ^ sink;
        });
        gen_ns[c] = 1e9 / rate;
        gen_ns_sum += gen_ns[c];
    }
    const double gen_ns_mean = gen_ns_sum / kCategories;
    const double gen_rate = 1e9 / gen_ns_mean;

    // Materialize once; paths B/C replay the shared flat stream.
    const auto trace = std::make_shared<ColumnarTrace>(
        materializeWorkload(workload));

    // Path B: in-memory replay, one virtual next() per record.
    MemoryTraceSource scalar(trace, "scalar");
    const double scalar_rate = throughput(records, reps, [&] {
        scalar.reset();
        TraceRecord rec;
        std::uint64_t sink = 0;
        while (scalar.next(rec))
            sink = consume(rec, sink);
        guard = guard ^ sink;
    });

    // Path C: the simulator's batched pull (one virtual call per
    // 256-record chunk copied to a flat L1-resident buffer).
    MemoryTraceSource batched(trace, "batched");
    const double batched_rate = throughput(records, reps, [&] {
        batched.reset();
        TraceRecord buf[kReplayBatch];
        std::uint64_t sink = 0;
        std::size_t got;
        while ((got = batched.nextBatch(buf, kReplayBatch)) > 0) {
            for (std::size_t i = 0; i < got; ++i)
                sink = consume(buf[i], sink);
        }
        guard = guard ^ sink;
    });

    TableFormatter table;
    table.header({"path", "records/sec", "vs generator"});
    const auto row = [&](const char *name, double rate) {
        table.row({name, TableFormatter::num(rate / 1e6, 2) + "M",
                   TableFormatter::num(rate / gen_rate, 2) + "x"});
    };
    row("generator nextBatch() drain", gen_rate);
    row("memory scalar next() (spec)", scalar_rate);
    row("memory batched nextBatch() (spec)", batched_rate);
    table.print();

    std::printf("\ngenerator drain, ns/record:");
    std::string by_category;
    for (std::size_t c = 0; c < kCategories; ++c) {
        const char *name = categoryName(static_cast<Category>(c));
        std::printf(" %s %.2f", name, gen_ns[c]);
        char entry[64];
        std::snprintf(entry, sizeof(entry), "%s\"%s\": %.2f",
                      c ? ", " : "", name, gen_ns[c]);
        by_category += entry;
    }
    std::printf(" (mean %.2f)\n", gen_ns_mean);

    char json[1024];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"bench\": \"trace_replay_throughput\",\n"
        "  \"records\": %llu,\n"
        "  \"reps\": %u,\n"
        "  \"paths\": {\n"
        "    \"generator\": {\"records_per_sec\": %.0f, "
        "\"ns_per_record\": %.2f,\n"
        "                  \"ns_per_record_by_category\": {%s}},\n"
        "    \"memory_scalar\": {\"records_per_sec\": %.0f},\n"
        "    \"memory_batched\": {\"records_per_sec\": %.0f}\n"
        "  },\n"
        "  \"batched_vs_generator_speedup\": %.3f\n"
        "}\n",
        static_cast<unsigned long long>(records), reps, gen_rate,
        gen_ns_mean, by_category.c_str(), scalar_rate, batched_rate,
        batched_rate / gen_rate);
    std::string error;
    if (!atomicWriteFile(out, json, &error))
        chirp_fatal("cannot write '", out, "': ", error);
    std::printf("\nJSON written to %s\n", out.c_str());
    return 0;
}

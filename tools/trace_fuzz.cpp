/**
 * @file
 * Deterministic fuzz driver for the hardened trace-ingest front-end.
 *
 * The contract under test: NO byte stream may crash, hang, or OOM the
 * ingest path.  The only acceptable failure is a thrown IngestError;
 * everything else (any other exception, a signal, an overrun the
 * sanitizers catch) is a bug, and the driver prints a reproducer
 * (seed + iteration) before exiting non-zero.
 *
 * Modes:
 *
 *   trace_fuzz --make-corpus DIR
 *       Write the checked-in corpus: well-formed ChampSim/CVP
 *       fixtures, a cross-format equivalent pair (equiv.champsim /
 *       equiv.cvp encode the same canonical stream, for the CI CSV
 *       byte-equality leg), and the classic hostile shapes
 *       (truncations, bit-flips, length-field lies, an empty file, a
 *       header with no body, plain garbage).
 *
 *   trace_fuzz --corpus DIR
 *       Ingest every regular file in DIR under the auto, champsim and
 *       cvp front-ends; assert the contract on each.
 *
 *   trace_fuzz [--iters N] [--seconds S] [--seed X]
 *       Structure-aware mutation loop: start from valid streams and
 *       apply random truncations, bit-flips, length-field lies,
 *       insertions, deletions and splices, then ingest the mutant
 *       under all three front-ends.  Fully deterministic for a given
 *       seed.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "trace/ingest/ingest.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/random.hh"

namespace
{

using namespace chirp;

/** Canonical 48-bit (sign-clear) address from one raw draw. */
Addr
canonical(std::uint64_t raw)
{
    return raw & 0x0000'7fff'ffff'ffffull;
}

TraceRecord
randomRecord(Rng &rng)
{
    TraceRecord rec;
    rec.pc = canonical(rng.next()) | 1; // nonzero
    rec.cls = static_cast<InstClass>(
        rng.below(static_cast<std::uint64_t>(InstClass::NumClasses)));
    if (isMemory(rec.cls))
        rec.effAddr = canonical(rng.next());
    if (isBranch(rec.cls)) {
        rec.taken = rec.cls != InstClass::CondBranch || rng.chance(0.6);
        rec.target = canonical(rng.next()) | 1;
    }
    return rec;
}

std::string
makeChampSim(Rng &rng, std::size_t records)
{
    std::string out;
    for (std::size_t i = 0; i < records; ++i)
        appendChampSimRecord(out, randomRecord(rng));
    return out;
}

std::string
makeCvp(Rng &rng, std::size_t records)
{
    std::string out;
    appendCvpHeader(out, records);
    for (std::size_t i = 0; i < records; ++i)
        appendCvpRecord(out, randomRecord(rng));
    return out;
}

/**
 * Ingest @p data under one explicit format; only IngestError may
 * escape.  Returns false (after printing the reproducer context) on a
 * contract violation.
 */
bool
ingestOne(const std::string &data, ExternalTraceFormat format,
          const std::string &context)
{
    // Tight budgets keep a pathological mutant from dominating the
    // run; the contract must hold under any budget.
    IngestLimits limits;
    limits.maxRecords = 1 << 20;
    limits.maxResidentBytes = 64u << 20;
    limits.badRecordBudget = 256;
    limits.maxWallMs = 10'000;
    try {
        ingestTraceBytes(data.data(), data.size(), context, limits,
                         format);
    } catch (const IngestError &) {
        // The one sanctioned failure mode.
    } catch (const std::exception &err) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s (format %s, %zu bytes) "
                     "escaped with %s\n",
                     context.c_str(), externalTraceFormatName(format),
                     data.size(), err.what());
        return false;
    } catch (...) {
        std::fprintf(stderr,
                     "CONTRACT VIOLATION: %s (format %s, %zu bytes) "
                     "threw a non-std exception\n",
                     context.c_str(), externalTraceFormatName(format),
                     data.size());
        return false;
    }
    return true;
}

bool
ingestAllFormats(const std::string &data, const std::string &context)
{
    bool ok = true;
    for (const ExternalTraceFormat format :
         {ExternalTraceFormat::Auto, ExternalTraceFormat::ChampSim,
          ExternalTraceFormat::Cvp})
        ok = ingestOne(data, format, context) && ok;
    return ok;
}

void
writeFile(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size()));
    if (!out)
        chirp_fatal("cannot write corpus file '", path, "'");
}

int
makeCorpus(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        chirp_fatal("cannot create corpus dir '", dir, "'");

    Rng rng(0x43565031ull /* "CVP1" */);
    const std::string champsim = makeChampSim(rng, 256);
    const std::string cvp = makeCvp(rng, 256);
    writeFile(dir + "/valid.champsim", champsim);
    writeFile(dir + "/valid.cvp", cvp);

    // The equivalence pair: both files encode the identical canonical
    // stream, so every simulator statistic — and therefore every CSV
    // byte — must match across the two front-ends.
    std::string equiv_champsim;
    std::string equiv_cvp;
    appendCvpHeader(equiv_cvp, 512);
    for (std::size_t i = 0; i < 512; ++i) {
        const TraceRecord rec = champSimCanonical(randomRecord(rng));
        appendChampSimRecord(equiv_champsim, rec);
        appendCvpRecord(equiv_cvp, rec);
    }
    writeFile(dir + "/equiv.champsim", equiv_champsim);
    writeFile(dir + "/equiv.cvp", equiv_cvp);

    // Hostile shapes.
    writeFile(dir + "/truncated.champsim",
              champsim.substr(0, champsim.size() - 17));
    writeFile(dir + "/truncated.cvp",
              cvp.substr(0, cvp.size() - 5));
    std::string bitflip = cvp;
    for (std::size_t at = 64; at < bitflip.size(); at += 97)
        bitflip[at] = static_cast<char>(bitflip[at] ^ 0x40);
    writeFile(dir + "/bitflip.cvp", bitflip);
    // Length-field lies: a register count far past the record bound,
    // and a declared record count of ~4 billion over an empty body.
    std::string lenlie;
    appendCvpHeader(lenlie, 3);
    appendCvpRecord(lenlie, randomRecord(rng));
    lenlie += '\x11';                   // pc fragment...
    lenlie.append(7, '\x00');
    lenlie += static_cast<char>(0);     // cls Alu
    lenlie += static_cast<char>(0);     // flags
    lenlie += static_cast<char>(0xff);  // nRegs = 255: impossible
    appendCvpRecord(lenlie, randomRecord(rng));
    writeFile(dir + "/lenlie.cvp", lenlie);
    std::string huge_count;
    appendCvpHeader(huge_count, 0xffff'ffffull);
    writeFile(dir + "/header-only.cvp", huge_count);
    writeFile(dir + "/empty.bin", "");
    std::string garbage;
    for (std::size_t i = 0; i < 4096; ++i)
        garbage += static_cast<char>(rng.next() & 0xff);
    writeFile(dir + "/garbage.bin", garbage); // 4096 % 64 == 0: sniffs
                                              // as ChampSim, all bad
    std::printf("wrote corpus to %s\n", dir.c_str());
    return 0;
}

int
runCorpus(const std::string &dir)
{
    std::size_t files = 0;
    bool ok = true;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        ok = ingestAllFormats(data, entry.path().string()) && ok;
        ++files;
    }
    if (files == 0)
        chirp_fatal("corpus dir '", dir, "' holds no files");
    std::printf("corpus: %zu files x 3 formats, %s\n", files,
                ok ? "contract held" : "CONTRACT VIOLATED");
    return ok ? 0 : 1;
}

/** Apply one random structure-aware mutation to @p data. */
void
mutate(std::string &data, Rng &rng)
{
    switch (rng.below(7)) {
      case 0: // truncate (boundary-biased: multiples of 8 often)
        if (!data.empty()) {
            std::uint64_t at = rng.below(data.size());
            if (rng.chance(0.5))
                at &= ~7ull;
            data.resize(at);
        }
        break;
      case 1: // bit-flip a run
        if (!data.empty()) {
            const std::size_t n = 1 + rng.below(8);
            for (std::size_t i = 0; i < n; ++i) {
                const std::size_t at = rng.below(data.size());
                data[at] = static_cast<char>(
                    data[at] ^ (1u << rng.below(8)));
            }
        }
        break;
      case 2: // length-field lie: stamp extreme values anywhere
        if (data.size() >= 8) {
            const std::size_t at = rng.below(data.size() - 7);
            const std::uint64_t lie =
                rng.chance(0.5) ? 0xffff'ffff'ffff'ffffull
                                : (rng.chance(0.5) ? 0 : 4ull << 30);
            std::memcpy(&data[at], &lie, 8);
        }
        break;
      case 3: // insert a run (shifts every later record boundary)
        {
            const std::size_t at =
                data.empty() ? 0 : rng.below(data.size() + 1);
            const std::size_t n = 1 + rng.below(64);
            std::string run;
            for (std::size_t i = 0; i < n; ++i)
                run += static_cast<char>(rng.next() & 0xff);
            data.insert(at, run);
        }
        break;
      case 4: // delete a run
        if (!data.empty()) {
            const std::size_t at = rng.below(data.size());
            data.erase(at, 1 + rng.below(64));
        }
        break;
      case 5: // splice: duplicate one chunk over another
        if (data.size() >= 2) {
            const std::size_t from = rng.below(data.size());
            const std::size_t to = rng.below(data.size());
            const std::size_t n =
                1 + rng.below(std::min<std::size_t>(
                        128, data.size() - std::max(from, to)));
            std::memmove(&data[to], &data[from], n);
        }
        break;
      case 6: // zero a run (fake padding)
        if (!data.empty()) {
            const std::size_t at = rng.below(data.size());
            const std::size_t n = std::min<std::size_t>(
                1 + rng.below(64), data.size() - at);
            std::memset(&data[at], 0, n);
        }
        break;
    }
}

int
runMutations(std::uint64_t iters, std::uint64_t seconds,
             std::uint64_t seed)
{
    Rng corpus_rng(seed ^ 0x9e3779b97f4a7c15ull);
    const std::vector<std::string> bases = {
        makeChampSim(corpus_rng, 128),
        makeCvp(corpus_rng, 128),
        makeCvp(corpus_rng, 1),
        std::string(),
    };
    Rng rng(seed);
    const std::time_t deadline =
        seconds ? std::time(nullptr)
                      + static_cast<std::time_t>(seconds)
                : 0;
    std::uint64_t done = 0;
    for (; done < iters || (deadline && std::time(nullptr) < deadline);
         ++done) {
        std::string data = bases[rng.below(bases.size())];
        const std::size_t rounds = 1 + rng.below(4);
        for (std::size_t i = 0; i < rounds; ++i)
            mutate(data, rng);
        std::string context = "mutation iter ";
        context += std::to_string(done);
        context += " (seed ";
        context += std::to_string(seed);
        context += ")";
        if (!ingestAllFormats(data, context)) {
            std::fprintf(stderr,
                         "reproduce with: trace_fuzz --iters %llu "
                         "--seed %llu\n",
                         static_cast<unsigned long long>(done + 1),
                         static_cast<unsigned long long>(seed));
            return 1;
        }
    }
    std::printf("fuzz: %llu mutants x 3 formats, contract held "
                "(seed %llu)\n",
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(seed));
    return 0;
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    std::uint64_t value = 0;
    if (!parseUnsigned(text, std::numeric_limits<std::uint64_t>::max(),
                       value))
        chirp_fatal(flag, " expects a non-negative integer, got '",
                    text, "'");
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string make_corpus;
    std::string corpus;
    std::uint64_t iters = 1000;
    std::uint64_t seconds = 0;
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                chirp_fatal(flag, " needs a value");
            return argv[++i];
        };
        if (arg == "--make-corpus")
            make_corpus = value("--make-corpus");
        else if (arg == "--corpus")
            corpus = value("--corpus");
        else if (arg == "--iters")
            iters = parseU64("--iters", value("--iters"));
        else if (arg == "--seconds")
            seconds = parseU64("--seconds", value("--seconds"));
        else if (arg == "--seed")
            seed = parseU64("--seed", value("--seed"));
        else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--make-corpus DIR] [--corpus DIR]\n"
                "       [--iters N] [--seconds S] [--seed X]\n",
                argv[0]);
            return 0;
        } else {
            chirp_fatal("unknown argument '", arg,
                        "' (try --help)");
        }
    }
    if (!make_corpus.empty())
        return makeCorpus(make_corpus);
    if (!corpus.empty())
        return runCorpus(corpus);
    return runMutations(iters, seconds, seed);
}

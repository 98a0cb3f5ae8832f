#include "trace/ingest/ingest.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sys/stat.h>

#include "trace/ingest/champsim_reader.hh"
#include "trace/ingest/cvp_reader.hh"
#include "trace/ingest/ingest_util.hh"
#include "util/logging.hh"
#include "util/parse.hh"

namespace chirp
{
namespace
{

using ingest_detail::ChampSimReader;
using ingest_detail::CvpReader;
using ingest_detail::IngestContext;

thread_local const std::atomic<bool> *tlsIngestCancel = nullptr;

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    std::uint64_t parsed = 0;
    if (!parseUnsigned(value, std::numeric_limits<std::uint64_t>::max(),
                       parsed))
        chirp_fatal(name, " must be a non-negative integer, got '",
                    value, "'");
    return parsed;
}

/**
 * Decide what format a stream holds without trusting anything beyond
 * the first bytes: the CVPT magic wins; otherwise a non-empty
 * 64-byte-multiple body is the only shape a ChampSim trace can have.
 */
ExternalTraceFormat
sniffFormat(std::FILE *file, std::uint64_t size, const std::string &name)
{
    std::uint8_t magic[4] = {};
    const std::size_t got = std::fread(magic, 1, sizeof(magic), file);
    std::fseek(file, 0, SEEK_SET);
    if (got == 4 && std::memcmp(magic, "CVPT", 4) == 0)
        return ExternalTraceFormat::Cvp;
    if (size > 0 && size % ChampSimReader::kRecordBytes == 0)
        return ExternalTraceFormat::ChampSim;
    throw IngestError(
        {DecodeErrorKind::UnknownFormat, 0,
         detail::concat("'", name, "': no CVPT magic and ", size,
                        " bytes is not a whole number of 64-byte "
                        "ChampSim records")});
}

/**
 * The shared core: wrap @p file (ownership passes to the reader) in
 * the format's defensive decoder, stream it through CappedSource into
 * owned columns, and enforce the resident-size budget as the columns
 * grow.
 */
IngestResult
ingestStream(std::FILE *file, std::uint64_t size, const std::string &name,
             const IngestLimits &limits, ExternalTraceFormat format)
{
    if (size == 0) {
        std::fclose(file);
        throw IngestError({DecodeErrorKind::TruncatedHeader, 0,
                           detail::concat("'", name, "': empty file")});
    }
    if (format == ExternalTraceFormat::Auto) {
        try {
            format = sniffFormat(file, size, name);
        } catch (...) {
            std::fclose(file);
            throw;
        }
    }

    IngestContext ctx;
    ctx.limits = limits;
    ctx.name = name;
    ctx.cancel =
        limits.cancel ? limits.cancel : ScopedIngestCancel::current();
    if (limits.maxWallMs != 0) {
        ctx.hasDeadline = true;
        ctx.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(limits.maxWallMs);
    }

    // The reader's ByteWindow member takes ownership of the FILE*
    // before any header validation runs, so a constructor throw
    // (truncated/bad CVP header) still closes the file during unwind.
    std::unique_ptr<TraceSource> reader;
    if (format == ExternalTraceFormat::ChampSim)
        reader = std::make_unique<ChampSimReader>(file, name, ctx);
    else
        reader = std::make_unique<CvpReader>(file, name, ctx);

    const InstCount cap = limits.maxRecords == 0
                              ? std::numeric_limits<InstCount>::max()
                              : limits.maxRecords;
    CappedSource capped(*reader, cap);

    auto trace = std::make_shared<ColumnarTrace>();
    const InstCount expected = capped.expectedLength();
    if (expected != 0) {
        // Never trust a declared count with our memory: the reserve
        // hint is clamped by what the input could physically hold
        // (the smallest CVP record is 11 bytes) and by the resident
        // budget, so a 16-byte file claiming 2^32 records cannot make
        // us pre-allocate gigabytes.
        std::uint64_t hint = std::min<std::uint64_t>(
            expected, size / 11 + 1);
        if (limits.maxResidentBytes != 0) {
            hint = std::min<std::uint64_t>(
                hint, limits.maxResidentBytes / 25);
        }
        trace->reserve(static_cast<std::size_t>(hint));
    }

    constexpr std::size_t kBatch = 4096;
    TraceRecord batch[kBatch];
    for (;;) {
        const std::size_t got = capped.nextBatch(batch, kBatch);
        if (got == 0)
            break;
        trace->appendBatch(batch, got);
        if (limits.maxResidentBytes != 0 &&
            trace->size() * 25ull > limits.maxResidentBytes) {
            throw IngestError(
                {DecodeErrorKind::BudgetExceeded, ctx.stats.bytesConsumed,
                 detail::concat("materialized trace exceeds ",
                                limits.maxResidentBytes,
                                "-byte resident budget at ",
                                trace->size(), " records")});
        }
        if (got < kBatch)
            break;
    }

    if (trace->empty()) {
        throw IngestError(
            {DecodeErrorKind::UnknownFormat, ctx.stats.bytesConsumed,
             detail::concat("'", name,
                            "': no decodable records in ",
                            ctx.stats.bytesConsumed, " bytes")});
    }

    IngestResult result;
    result.trace = std::move(trace);
    result.stats = ctx.stats;
    result.format = format;
    chirp_inform("ingest '", name, "': ", result.stats.records, " ",
                 externalTraceFormatName(format), " records from ",
                 result.stats.bytesConsumed, " bytes (",
                 result.stats.badRecords, " bad, ",
                 result.stats.quarantinedBytes, " quarantined in ",
                 result.stats.quarantinedRangeCount, " ranges)");
    return result;
}

} // namespace

const char *
externalTraceFormatName(ExternalTraceFormat format)
{
    switch (format) {
      case ExternalTraceFormat::Auto:
        return "auto";
      case ExternalTraceFormat::ChampSim:
        return "champsim";
      case ExternalTraceFormat::Cvp:
        return "cvp";
    }
    return "?";
}

ExternalTraceFormat
externalTraceFormatFromEnv()
{
    const char *value = std::getenv("CHIRP_TRACE_IN_FORMAT");
    if (!value || !*value || std::strcmp(value, "auto") == 0)
        return ExternalTraceFormat::Auto;
    if (std::strcmp(value, "champsim") == 0)
        return ExternalTraceFormat::ChampSim;
    if (std::strcmp(value, "cvp") == 0)
        return ExternalTraceFormat::Cvp;
    chirp_fatal("CHIRP_TRACE_IN_FORMAT must be auto, champsim or cvp, "
                "got '", value, "'");
}

IngestLimits
ingestLimitsFromEnv()
{
    IngestLimits limits;
    limits.maxRecords =
        envU64("CHIRP_INGEST_MAX_RECORDS", limits.maxRecords);
    limits.maxResidentBytes =
        envU64("CHIRP_INGEST_MAX_BYTES", limits.maxResidentBytes);
    limits.badRecordBudget =
        envU64("CHIRP_INGEST_BAD_BUDGET", limits.badRecordBudget);
    limits.maxWallMs = envU64("CHIRP_INGEST_TIMEOUT_MS", limits.maxWallMs);
    return limits;
}

IngestResult
ingestTraceFile(const std::string &path, const IngestLimits &limits,
                ExternalTraceFormat format)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        throw IngestError({DecodeErrorKind::Unreadable, 0,
                           detail::concat("'", path, "': ",
                                          std::strerror(errno))});
    }
    struct stat st = {};
    if (fstat(fileno(file), &st) != 0 || !S_ISREG(st.st_mode)) {
        std::fclose(file);
        throw IngestError(
            {DecodeErrorKind::Unreadable, 0,
             detail::concat("'", path, "': not a regular file")});
    }
    return ingestStream(file, static_cast<std::uint64_t>(st.st_size),
                        path, limits, format);
}

IngestResult
ingestTraceFile(const std::string &path)
{
    return ingestTraceFile(path, ingestLimitsFromEnv(),
                           externalTraceFormatFromEnv());
}

IngestResult
ingestTraceBytes(const void *data, std::size_t len,
                 const std::string &name, const IngestLimits &limits,
                 ExternalTraceFormat format)
{
    if (len == 0) {
        throw IngestError({DecodeErrorKind::TruncatedHeader, 0,
                           detail::concat("'", name, "': empty input")});
    }
    // fmemopen's buffer must outlive the stream, and the readers keep
    // the FILE* for their whole life: copy into an image owned here.
    std::vector<std::uint8_t> image(
        static_cast<const std::uint8_t *>(data),
        static_cast<const std::uint8_t *>(data) + len);
    std::FILE *file = fmemopen(image.data(), image.size(), "rb");
    if (!file) {
        throw IngestError({DecodeErrorKind::Unreadable, 0,
                           detail::concat("'", name, "': fmemopen: ",
                                          std::strerror(errno))});
    }
    return ingestStream(file, len, name, limits, format);
}

ScopedIngestCancel::ScopedIngestCancel(const std::atomic<bool> *token)
    : previous_(tlsIngestCancel)
{
    tlsIngestCancel = token;
}

ScopedIngestCancel::~ScopedIngestCancel()
{
    tlsIngestCancel = previous_;
}

const std::atomic<bool> *
ScopedIngestCancel::current()
{
    return tlsIngestCancel;
}

void
appendChampSimRecord(std::string &out, const TraceRecord &rec)
{
    std::uint8_t bytes[ChampSimReader::kRecordBytes] = {};
    std::memcpy(bytes + 0, &rec.pc, 8);
    bytes[8] = isBranch(rec.cls) ? 1 : 0;
    bytes[9] = (isBranch(rec.cls) && rec.taken) ? 1 : 0;
    if (rec.cls == InstClass::Store)
        std::memcpy(bytes + 16, &rec.effAddr, 8);
    if (rec.cls == InstClass::Load)
        std::memcpy(bytes + 32, &rec.effAddr, 8);
    out.append(reinterpret_cast<const char *>(bytes), sizeof(bytes));
}

TraceRecord
champSimCanonical(const TraceRecord &rec)
{
    TraceRecord out;
    out.pc = rec.pc;
    if (isBranch(rec.cls)) {
        // The format only records is_branch/branch_taken.
        out.cls = InstClass::CondBranch;
        out.taken = rec.taken;
    } else if (isMemory(rec.cls) && rec.effAddr != 0) {
        out.cls = rec.cls;
        out.effAddr = rec.effAddr;
    } else {
        // Fp/SlowAlu and zero-address memory ops all decode as Alu.
        out.cls = InstClass::Alu;
    }
    return out;
}

void
appendCvpHeader(std::string &out, std::uint64_t count)
{
    out.append("CVPT", 4);
    const std::uint32_t version = 1;
    out.append(reinterpret_cast<const char *>(&version),
               sizeof(version));
    out.append(reinterpret_cast<const char *>(&count), sizeof(count));
}

void
appendCvpRecord(std::string &out, const TraceRecord &rec)
{
    out.append(reinterpret_cast<const char *>(&rec.pc), 8);
    out.push_back(static_cast<char>(rec.cls));
    std::uint8_t flags = 0;
    if (isBranch(rec.cls) && rec.taken)
        flags |= 0x01;
    if (isMemory(rec.cls))
        flags |= 0x02;
    if (isBranch(rec.cls) && rec.target != 0)
        flags |= 0x04;
    out.push_back(static_cast<char>(flags));
    if (flags & 0x02) {
        out.append(reinterpret_cast<const char *>(&rec.effAddr), 8);
        out.push_back(8); // access size: one machine word
    }
    if (flags & 0x04)
        out.append(reinterpret_cast<const char *>(&rec.target), 8);
    // One source register derived from the pc, so corpus files
    // exercise the register-list decode path.
    out.push_back(1);
    out.push_back(static_cast<char>(rec.pc & 0x1f));
}

} // namespace chirp

//===- resilience/Checkpoint.h - Crash-safe checkpoint files ----*- C++ -*-===//
///
/// \file
/// The on-disk checkpoint container. This layer knows nothing about engine
/// state: engines serialize their frontier/visited-set/stats into a payload
/// buffer with BinWriter, and this file wraps it in a versioned, checksummed
/// container written crash-safely (temp file + fsync + atomic rename).
///
/// File layout (all little-endian):
///
///   u32  magic      "RKCP"
///   u32  version    container format version (currently 3)
///   u64  configHash hash of program text + semantic options + initial
///                   memory state; a resume whose hash differs is rejected
///                   as stale before any payload is decoded
///   u64  payloadLen
///   u64  payloadHash  hashBytes over the payload
///   ...  payload      engine-specific (see Explorer.h / ParallelExplorer.h)
///
/// Crash safety: the file is written to "<path>.tmp", flushed, fsync'd, and
/// renamed over <path>. A kill at any point leaves either the previous
/// complete checkpoint or the new complete checkpoint at <path> — never a
/// torn file. The payload checksum catches the remaining ways a file can be
/// bad (truncation of a never-renamed tmp that a caller points at directly,
/// media corruption).
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_RESILIENCE_CHECKPOINT_H
#define ROCKER_RESILIENCE_CHECKPOINT_H

#include "support/BinCodec.h"

#include <cstdint>
#include <optional>
#include <string>

namespace rocker::ckpt {

/// Container format version; bumped on any layout change so old files are
/// rejected instead of misdecoded. Version 2: sequential trace edges store
/// (pc, collapse count) instead of rendered step text. Version 3: frontier
/// states are stored as their length-prefixed state keys.
constexpr uint32_t FormatVersion = 3;

/// Writes \p Payload to \p Path crash-safely (tmp + fsync + rename +
/// parent-directory fsync; without the final directory fsync a power loss
/// after the rename can still lose the directory entry). Returns false and
/// sets \p Err on I/O failure. Honors the fi::maybeKill("ckpt.midwrite"),
/// fi::maybeKill("ckpt.postrename"), fi::shouldFail("ckpt.write"), and
/// fi::shouldFail("ckpt.dirsync") probes.
bool writeCheckpointFile(const std::string &Path, uint64_t ConfigHash,
                         const std::string &Payload, std::string *Err);

/// Writes \p Data to \p Path with the same tmp + fsync + rename +
/// parent-directory fsync discipline as writeCheckpointFile, but with no
/// container framing: callers that store self-validating content (JSON with
/// a schema field, checksummed blobs) use this for crash-safe publication.
/// Honors the fi::shouldFail("ckpt.write") and fi::shouldFail("ckpt.dirsync")
/// probes.
bool atomicWriteFile(const std::string &Path, const std::string &Data,
                     std::string *Err);

/// Fsyncs the directory containing \p Path so a rename into it is durable.
/// Returns false and sets \p Err on failure (or under the injected
/// "ckpt.dirsync" fault).
bool fsyncParentDir(const std::string &Path, std::string *Err);

/// Loads and validates a checkpoint, returning the payload. Rejects bad
/// magic/version, config-hash mismatch (stale checkpoint), and checksum
/// failure; \p Err explains which.
std::optional<std::string> loadCheckpointFile(const std::string &Path,
                                              uint64_t ExpectConfigHash,
                                              std::string *Err);

/// Reads just the header's config hash without decoding the payload, so the
/// CLI can reject a stale --resume file before constructing an engine.
std::optional<uint64_t> peekConfigHash(const std::string &Path,
                                       std::string *Err);

} // namespace rocker::ckpt

#endif // ROCKER_RESILIENCE_CHECKPOINT_H

// hcep-lint result cache: skip re-analyzing unchanged files.
//
// A full-tree scan tokenizes and scope-tracks every file under src/;
// with the cache, a file whose (size, mtime, FNV-1a content hash) triple
// is unchanged reuses its serialized FileFacts from the previous run.
// Facts — not findings — are what get cached: the cross-file project
// pass (parallel reachability) re-derives its findings from cached facts on
// every run, so editing one TU correctly re-evaluates every cross-file
// consequence while still only re-tokenizing the one file.
//
// The mtime check is a fast-path hint only: a mtime/size hit is trusted
// without hashing; a miss falls back to the content hash before
// re-analyzing, so `touch` or a checkout does not invalidate the cache.
// Format is a line-oriented text file, versioned; an unreadable or
// version-mismatched cache is silently ignored (the scan is then merely
// cold, never wrong).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "facts.hpp"

namespace hcep::lint {

struct CacheKey {
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
  std::uint64_t content_hash = 0;  ///< FNV-1a 64 of the file bytes
};

std::uint64_t fnv1a64(const std::string& bytes);

class ResultCache {
 public:
  /// Loads `path`; missing/corrupt/old-version files yield an empty cache.
  static ResultCache load(const std::string& path);

  /// Facts for `relpath` if the key matches (mtime+size fast path, hash
  /// slow path); nullopt on miss.
  std::optional<FileFacts> lookup(const std::string& relpath,
                                  const CacheKey& key) const;

  void store(const std::string& relpath, const CacheKey& key,
             const FileFacts& facts);

  /// Writes the cache back (deterministic order). Returns false on IO
  /// error.
  bool save(const std::string& path) const;

  std::size_t entries() const { return entries_.size(); }

 private:
  struct Entry {
    CacheKey key;
    FileFacts facts;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace hcep::lint

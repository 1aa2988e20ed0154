#ifndef TITANT_MAXCOMPUTE_PANGU_H_
#define TITANT_MAXCOMPUTE_PANGU_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "maxcompute/table.h"

namespace titant::maxcompute {

/// Pangu, the disk storage module (§4.2): a directory-backed blob store
/// holding serialized tables and job artifacts. Thread-safe.
class PanguStore {
 public:
  /// Opens (creating) the store rooted at `dir`.
  static StatusOr<PanguStore> Open(const std::string& dir);

  PanguStore(PanguStore&&) = default;
  PanguStore& operator=(PanguStore&&) = default;

  /// Writes a blob under `name` (atomically via rename).
  Status PutBlob(const std::string& name, const std::string& data);

  /// Reads a blob; NotFound if absent.
  StatusOr<std::string> GetBlob(const std::string& name) const;

  /// Deletes a blob (idempotent).
  Status DeleteBlob(const std::string& name);

  /// Lists blob names (sorted). A file whose name PutBlob could not have
  /// written (a '%' without two hex digits after it) is skipped.
  std::vector<std::string> List() const;

  /// Table convenience wrappers.
  Status PutTable(const std::string& name, const Table& table) {
    return PutBlob(name, table.Serialize());
  }
  StatusOr<Table> GetTable(const std::string& name) const {
    TITANT_ASSIGN_OR_RETURN(std::string blob, GetBlob(name));
    return Table::Deserialize(blob);
  }

  const std::string& dir() const { return dir_; }

 private:
  explicit PanguStore(std::string dir) : dir_(std::move(dir)) {}

  /// Maps a logical name to a filesystem-safe path inside dir_.
  std::string PathFor(const std::string& name) const;

  std::string dir_;
};

}  // namespace titant::maxcompute

#endif  // TITANT_MAXCOMPUTE_PANGU_H_

#include "maxcompute/pangu.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>

namespace titant::maxcompute {

namespace fs = std::filesystem;

StatusOr<PanguStore> PanguStore::Open(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("Pangu needs a directory");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create Pangu dir: " + dir);
  return PanguStore(dir);
}

std::string PanguStore::PathFor(const std::string& name) const {
  // Escape path separators so logical names like "tables/txn" are flat.
  std::string safe;
  safe.reserve(name.size());
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '.') {
      safe.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "%%%02X", static_cast<unsigned char>(c));
      safe += buf;
    }
  }
  return dir_ + "/" + safe + ".blob";
}

Status PanguStore::PutBlob(const std::string& name, const std::string& data) {
  const std::string path = PathFor(name);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot create " + tmp);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out) return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot commit " + path);
  }
  return Status::OK();
}

StatusOr<std::string> PanguStore::GetBlob(const std::string& name) const {
  std::ifstream in(PathFor(name), std::ios::binary);
  if (!in) return Status::NotFound("Pangu blob: " + name);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

Status PanguStore::DeleteBlob(const std::string& name) {
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  return Status::OK();
}

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Reverses PathFor's escaping of a file stem. False when a '%' is not
/// followed by two hex digits: such a file was not written by PutBlob.
bool UnescapeStem(std::string_view stem, std::string* name) {
  for (std::size_t i = 0; i < stem.size(); ++i) {
    if (stem[i] != '%') {
      name->push_back(stem[i]);
      continue;
    }
    const int hi = i + 2 < stem.size() ? HexDigit(stem[i + 1]) : -1;
    const int lo = hi >= 0 ? HexDigit(stem[i + 2]) : -1;
    if (lo < 0) return false;
    name->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

}  // namespace

std::vector<std::string> PanguStore::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string file = entry.path().filename().string();
    if (file.size() <= 5 || file.compare(file.size() - 5, 5, ".blob") != 0) continue;
    std::string name;
    if (UnescapeStem(std::string_view(file).substr(0, file.size() - 5), &name)) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace titant::maxcompute

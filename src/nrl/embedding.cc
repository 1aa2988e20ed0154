#include "nrl/embedding.h"

#include <cmath>
#include <fstream>

#include "common/bytes.h"

namespace titant::nrl {

namespace {
constexpr uint32_t kMagic = 0x54414E45;  // "ENAT"
}  // namespace

void EmbeddingMatrix::NormalizeRows() {
  for (std::size_t i = 0; i < rows_; ++i) {
    float* row = Row(i);
    double norm_sq = 0.0;
    for (int j = 0; j < dim_; ++j) norm_sq += static_cast<double>(row[j]) * row[j];
    if (norm_sq <= 0.0) continue;
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
    for (int j = 0; j < dim_; ++j) row[j] *= inv;
  }
}

float EmbeddingMatrix::Cosine(std::size_t a, std::size_t b) const {
  const float* ra = Row(a);
  const float* rb = Row(b);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int j = 0; j < dim_; ++j) {
    dot += static_cast<double>(ra[j]) * rb[j];
    na += static_cast<double>(ra[j]) * ra[j];
    nb += static_cast<double>(rb[j]) * rb[j];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

std::string EmbeddingMatrix::Serialize() const {
  std::string blob;
  ByteWriter w(&blob);
  w.U32(kMagic);
  w.U64(rows_);
  w.I32(dim_);
  w.Array(data_.data(), data_.size());
  return blob;
}

StatusOr<EmbeddingMatrix> EmbeddingMatrix::Deserialize(std::string_view blob) {
  ByteReader r(blob);
  uint32_t magic = 0;
  uint64_t rows = 0;
  int32_t dim = 0;
  if (!r.U32(&magic) || !r.U64(&rows) || !r.I32(&dim)) {
    return Status::Corruption("embedding blob too short");
  }
  if (magic != kMagic) return Status::Corruption("bad embedding magic");
  if (dim < 0 || rows > (1ULL << 40)) return Status::Corruption("implausible embedding shape");
  // The rows fill the rest of the blob. The check divides the bytes left
  // by the row size: rows * dim * 4 would wrap to 0 for rows = 2^40 and
  // dim = 2^22 and let a header-only blob size a petabyte matrix.
  const std::size_t row_bytes = static_cast<std::size_t>(dim) * sizeof(float);
  if (!CountIs(rows, row_bytes, r.remaining())) {
    return Status::Corruption("embedding blob size mismatch");
  }
  EmbeddingMatrix m;
  m.rows_ = static_cast<std::size_t>(rows);
  m.dim_ = dim;
  r.Array(r.remaining() / sizeof(float), &m.data_);
  return m;
}

Status EmbeddingMatrix::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  const std::string blob = Serialize();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

StatusOr<EmbeddingMatrix> EmbeddingMatrix::LoadFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string blob((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return Deserialize(blob);
}

}  // namespace titant::nrl

// Cache-line-aligned vectors and split-complex (structure-of-arrays)
// storage for the auto-vectorized likelihood kernels. Keeping re[] and
// im[] in separate aligned arrays lets the compiler emit contiguous SIMD
// loads/stores and plain mul/add (no libm __muldc3 NaN-checking path).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace bloc::dsp {

/// Minimal C++17 aligned allocator; 64 bytes spans a full cache line and
/// every SSE/AVX/AVX-512 vector width.
template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{Alignment};

  /// Explicit rebind: the default trait cannot rebind templates with a
  /// non-type (alignment) parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, kAlign);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

/// A complex vector stored as two parallel aligned real arrays.
struct SplitComplexVec {
  AlignedVec<double> re;
  AlignedVec<double> im;

  std::size_t size() const { return re.size(); }
  void Resize(std::size_t n) {
    re.resize(n);
    im.resize(n);
  }
};

}  // namespace bloc::dsp

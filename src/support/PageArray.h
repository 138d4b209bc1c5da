//===- support/PageArray.h - Zeroed pages and growable arrays --*- C++ -*-===//
///
/// \file
/// The page allocator both visited tiers share, and the growable array the
/// sequential engine keeps its per-state stores in.
///
///  * mapZeroed / unmapZeroed — a zero-filled anonymous mapping of any
///    size, optionally with transparent huge pages requested, whose pages
///    go back to the kernel the moment it is unmapped.
///  * zeroedAlloc / zeroedFree — a zero-filled block whose untouched pages
///    stay unmapped: a mapping from HugeBlockBytes up, calloc below.
///  * PageArray<T> — a std::vector-like array of trivially copyable
///    elements. Below HugeBlockBytes it lives on malloc, so small
///    verdicts make no system calls. From there up it is an anonymous
///    mapping that grows with mremap: the kernel extends or moves the
///    page tables, nothing is copied, and the old and new buffers are
///    never resident at the same time. assignZeroed() replaces the
///    contents with a fresh zeroedAlloc block, which is how a hash index
///    is rebuilt at twice the size without a memset.
///
/// Why not std::vector or std::string: they grow by allocate, copy, free.
/// glibc raises its mmap threshold whenever a mapped block is freed, so
/// once one verdict has freed its large arrays, the next verdict grows
/// them on the brk heap, where every doubling leaves the old buffer
/// behind as a resident hole. Peak RSS then ratchets up with each verdict
/// a process runs (large-seq's four passes: 64 MB after one, 89 MB after
/// four). Mappings that are unmapped on free leave no holes.
///
/// Off Linux, mapZeroed and zeroedAlloc are calloc and PageArray grows
/// with realloc.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKER_SUPPORT_PAGEARRAY_H
#define ROCKER_SUPPORT_PAGEARRAY_H

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace rocker {

/// Blocks from this size up are mapped directly (see zeroedAlloc).
inline constexpr size_t HugeBlockBytes = size_t{2} << 20;

/// A zero-filled anonymous mapping of \p Bytes: its pages are faulted in
/// as they are written and go back to the kernel the moment it is
/// unmapped. \p HugePages requests transparent huge pages for it. This is
/// the allocator's one mmap call; zeroedAlloc uses it from HugeBlockBytes
/// up, and the sequential frontier maps its 64 KiB blocks with it
/// (explore/KeyFrontier.h) so that drained blocks leave no free heap
/// behind. Free with unmapZeroed and the same size.
inline void *mapZeroed(size_t Bytes, bool HugePages) {
#ifdef __linux__
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  if (HugePages)
    ::madvise(P, Bytes, MADV_HUGEPAGE); // Advisory: failure is harmless.
  return P;
#else
  (void)HugePages;
  void *P = std::calloc(1, Bytes);
  if (!P)
    throw std::bad_alloc();
  return P;
#endif
}

inline void unmapZeroed(void *P, size_t Bytes) {
#ifdef __linux__
  ::munmap(P, Bytes);
#else
  (void)Bytes;
  std::free(P);
#endif
}

/// Zero-filled block whose untouched pages stay unmapped, so RSS grows
/// only with what is written (a value-initializing new[] or vector would
/// memset, and fault, the whole block up front). On Linux, blocks of
/// HugeBlockBytes and more are mapped (mapZeroed); \p HugePages requests
/// transparent huge pages for them, which suits a hash table: probing
/// touches every page anyway, and huge pages cut the faults of a rebuild
/// and the TLB misses of every probe. Blocks that fill front to back or
/// are touched sparsely should not ask, since a partly used huge page is
/// resident in full. Free with zeroedFree and the same size.
inline void *zeroedAlloc(size_t Bytes, bool HugePages) {
#ifdef __linux__
  if (Bytes >= HugeBlockBytes)
    return mapZeroed(Bytes, HugePages);
#else
  (void)HugePages;
#endif
  void *P = std::calloc(1, Bytes);
  if (!P)
    throw std::bad_alloc();
  return P;
}

inline void zeroedFree(void *P, size_t Bytes) {
#ifdef __linux__
  if (Bytes >= HugeBlockBytes) {
    unmapZeroed(P, Bytes);
    return;
  }
#endif
  std::free(P);
}

/// Growable array of trivially copyable elements (see the file comment).
/// The block is mapped exactly when capacity() * sizeof(T) reaches
/// HugeBlockBytes; \p HugePages is passed to zeroedAlloc for it. Pointers
/// into the array are invalidated by any growth, as with std::vector.
template <typename T, bool HugePages = false> class PageArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "PageArray moves its elements with memcpy and mremap");

public:
  PageArray() = default;
  ~PageArray() { release(); }
  PageArray(PageArray &&O) noexcept
      : Data(std::exchange(O.Data, nullptr)), Size(std::exchange(O.Size, 0)),
        Cap(std::exchange(O.Cap, 0)) {}
  PageArray &operator=(PageArray &&O) noexcept {
    PageArray(std::move(O)).swap(*this);
    return *this;
  }
  PageArray(const PageArray &) = delete;
  PageArray &operator=(const PageArray &) = delete;

  void swap(PageArray &O) noexcept {
    std::swap(Data, O.Data);
    std::swap(Size, O.Size);
    std::swap(Cap, O.Cap);
  }

  size_t size() const { return Size; }
  size_t capacity() const { return Cap; }
  bool empty() const { return Size == 0; }
  T *data() { return Data; }
  const T *data() const { return Data; }
  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }
  T *begin() { return Data; }
  T *end() { return Data + Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }

  void push_back(const T &V) {
    if (Size == Cap) {
      T Copy = V; // V may live in the block that growth moves.
      grow(Size + 1);
      Data[Size++] = Copy;
      return;
    }
    Data[Size++] = V;
  }

  /// Appends \p N elements from \p P, which must not point into this
  /// array.
  void append(const T *P, size_t N) {
    if (Cap - Size < N)
      grow(Size + N);
    if (N)
      std::memcpy(Data + Size, P, N * sizeof(T));
    Size += N;
  }

  /// Sets the size to \p N; new elements are zero.
  void resize(size_t N) {
    reserve(N);
    if (N > Size)
      std::memset(static_cast<void *>(Data + Size), 0,
                  (N - Size) * sizeof(T));
    Size = N;
  }

  /// Makes room for \p N elements without changing the size.
  void reserve(size_t N) {
    if (N > Cap)
      reallocTo(N);
  }

  /// Drops the elements and keeps the block.
  void clear() { Size = 0; }

  /// Replaces the contents with \p N zero elements in a fresh zeroedAlloc
  /// block. The old block is freed first, so the two are never held at
  /// once.
  void assignZeroed(size_t N) {
    release();
    if (N)
      Data = static_cast<T *>(zeroedAlloc(N * sizeof(T), HugePages));
    Size = Cap = N;
  }

private:
  /// True when a block of \p Elems elements is a mapping (on Linux).
  static bool mapped(size_t Elems) {
    return Elems * sizeof(T) >= HugeBlockBytes;
  }

  void release() {
    if (Data)
      zeroedFree(Data, Cap * sizeof(T));
    Data = nullptr;
    Size = Cap = 0;
  }

  /// Geometric growth to at least \p MinCap elements.
  void grow(size_t MinCap) {
    reallocTo(std::max({MinCap, Cap * 2, size_t{16}}));
  }

  /// Moves the contents to a block of \p NewCap > Cap elements: realloc
  /// below HugeBlockBytes, one copy into a fresh mapping on crossing it,
  /// mremap above it.
  void reallocTo(size_t NewCap) {
    void *P;
#ifdef __linux__
    if (mapped(NewCap)) {
      if (mapped(Cap)) { // The grown mapping keeps its huge-page advice.
        P = ::mremap(Data, Cap * sizeof(T), NewCap * sizeof(T),
                     MREMAP_MAYMOVE);
        if (P == MAP_FAILED)
          throw std::bad_alloc();
      } else {
        P = zeroedAlloc(NewCap * sizeof(T), HugePages);
        if (Size)
          std::memcpy(P, Data, Size * sizeof(T));
        std::free(Data);
      }
      Data = static_cast<T *>(P);
      Cap = NewCap;
      return;
    }
#endif
    P = std::realloc(Data, NewCap * sizeof(T));
    if (!P)
      throw std::bad_alloc();
    Data = static_cast<T *>(P);
    Cap = NewCap;
  }

  T *Data = nullptr;
  size_t Size = 0;
  size_t Cap = 0;
};

} // namespace rocker

#endif // ROCKER_SUPPORT_PAGEARRAY_H

/**
 * @file
 * Simulated main memory: a sparse, paged, byte-addressable backing store
 * holding real data values.  Pointer-chasing workloads store actual node
 * addresses in it, and indirect-array workloads store real index vectors,
 * so the ADORE prefetcher sees genuine address streams.
 *
 * Pages are demand-paged: a page's host bytes exist only once something
 * reads or writes it.  Initial contents can be registered ahead of that
 * as deferred fills (deferFill), which run when their page is first
 * allocated, so every reader sees exactly the bytes an eager write
 * would have left there.
 */

#ifndef ADORE_MEM_MAIN_MEMORY_HH
#define ADORE_MEM_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isa/insn.hh"
#include "support/logging.hh"

namespace adore
{

class MainMemory
{
  public:
    static constexpr unsigned pageShift = 16;  ///< 64 KiB pages
    static constexpr Addr pageBytes = Addr{1} << pageShift;

    /**
     * A deferred initialiser for part of one page.  It is called with
     * the host bytes backing the address it was registered at and must
     * write only the byte count it was registered with.
     */
    using Fill = std::function<void(std::uint8_t *)>;

    /** Read @p size bytes (1/2/4/8), zero-extended. */
    std::uint64_t
    read(Addr addr, unsigned size)
    {
        // Fixed-size copies per width keep the common (non-straddling)
        // path free of the variable-length memcpy call.
        Addr off = addr & (pageBytes - 1);
        if (off + size <= pageBytes) [[likely]] {
            const std::uint8_t *p = page(addr) + off;
            switch (size) {
              case 8: {
                std::uint64_t v;
                std::memcpy(&v, p, 8);
                return v;
              }
              case 4: {
                std::uint32_t v;
                std::memcpy(&v, p, 4);
                return v;
              }
              case 2: {
                std::uint16_t v;
                std::memcpy(&v, p, 2);
                return v;
              }
              default:
                return *p;
            }
        }
        std::uint64_t v = 0;
        copyFrom(addr, &v, size);
        return v;
    }

    /** Write the low @p size bytes of @p value. */
    void
    write(Addr addr, std::uint64_t value, unsigned size)
    {
        Addr off = addr & (pageBytes - 1);
        if (off + size <= pageBytes) [[likely]] {
            std::uint8_t *p = page(addr) + off;
            switch (size) {
              case 8:
                std::memcpy(p, &value, 8);
                return;
              case 4: {
                std::uint32_t v = static_cast<std::uint32_t>(value);
                std::memcpy(p, &v, 4);
                return;
              }
              case 2: {
                std::uint16_t v = static_cast<std::uint16_t>(value);
                std::memcpy(p, &v, 2);
                return;
              }
              default:
                *p = static_cast<std::uint8_t>(value);
                return;
              }
        }
        copyTo(addr, &value, size);
    }

    std::uint64_t readU64(Addr addr) { return read(addr, 8); }
    void writeU64(Addr addr, std::uint64_t v) { write(addr, v, 8); }

    double
    readF64(Addr addr)
    {
        std::uint64_t bits = read(addr, 8);
        double d;
        std::memcpy(&d, &bits, 8);
        return d;
    }

    void
    writeF64(Addr addr, double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, 8);
        write(addr, bits, 8);
    }

    float
    readF32(Addr addr)
    {
        std::uint32_t bits = static_cast<std::uint32_t>(read(addr, 4));
        float f;
        std::memcpy(&f, &bits, 4);
        return f;
    }

    void
    writeF32(Addr addr, float f)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &f, 4);
        write(addr, bits, 4);
    }

    /**
     * Initialise [@p addr, @p addr + @p bytes), which must lie in one
     * page, by running @p fill on it.  On a page that is not yet
     * allocated the fill waits and runs when the page is first read or
     * written, before that access; on an allocated page it runs now.
     * Fills on one page run in registration order.
     */
    void
    deferFill(Addr addr, Addr bytes, Fill fill)
    {
        if (bytes == 0)
            return;
        Addr off = addr & (pageBytes - 1);
        panic_if(off + bytes > pageBytes,
                 "deferFill: %llu bytes at %#llx straddle a page",
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(addr));
        auto it = pages_.find(addr >> pageShift);
        if (it != pages_.end())
            fill(it->second.get() + off);
        else
            pending_[addr >> pageShift].push_back({off, std::move(fill)});
    }

    /**
     * Number of materialised pages: those some access has touched.  A
     * page that holds only pending fills is not counted.
     */
    std::size_t allocatedPages() const { return pages_.size(); }

    /**
     * Host-side prefetch of the byte backing @p addr, issued before the
     * simulated cache walk of a load so the data touch in read()
     * overlaps it.  Non-allocating: only acts when the page-pointer
     * cache already knows the page.  Pure hint, no simulated effect.
     */
    void
    hostPrefetch(Addr addr) const
    {
        Addr key = addr >> pageShift;
        std::size_t slot =
            static_cast<std::size_t>(key) & (pageCacheKey_.size() - 1);
        if (pageCacheKey_[slot] == key)
            __builtin_prefetch(pageCachePtr_[slot] + (addr & (pageBytes - 1)));
    }

  private:
    std::uint8_t *
    page(Addr addr)
    {
        // Direct-mapped page-pointer cache: hot loops touch a handful of
        // 64 KiB pages (a chased pool plus a few streamed arrays), so
        // almost every access skips the hash lookup.  A single-entry
        // cache thrashes the moment a loop alternates two pages — a
        // pointer chase interleaved with a side array — hence 16
        // entries.  Cached pointers stay valid across insertions (the
        // map stores stable unique_ptr payloads) and pages are never
        // freed, so entries need no invalidation.
        Addr key = addr >> pageShift;
        std::size_t slot =
            static_cast<std::size_t>(key) & (pageCacheKey_.size() - 1);
        if (pageCacheKey_[slot] == key)
            return pageCachePtr_[slot];
        auto it = pages_.find(key);
        std::uint8_t *bytes =
            it != pages_.end() ? it->second.get() : materialise(key);
        pageCacheKey_[slot] = key;
        pageCachePtr_[slot] = bytes;
        return bytes;
    }

    /** Allocate page @p key zeroed and run its pending fills. */
    [[gnu::noinline]] std::uint8_t *
    materialise(Addr key)
    {
        // make_unique<T[]> value-initialises: the page starts zeroed.
        std::uint8_t *bytes =
            pages_.emplace(key, std::make_unique<std::uint8_t[]>(pageBytes))
                .first->second.get();
        auto pending = pending_.find(key);
        if (pending != pending_.end()) {
            for (PendingFill &p : pending->second)
                p.fill(bytes + p.offset);
            pending_.erase(pending);
        }
        return bytes;
    }

    void
    copyFrom(Addr addr, void *out, unsigned size)
    {
        Addr off = addr & (pageBytes - 1);
        if (off + size <= pageBytes) {
            std::memcpy(out, page(addr) + off, size);
        } else {
            // Page-straddling access (rare): byte-wise.
            auto *dst = static_cast<std::uint8_t *>(out);
            for (unsigned i = 0; i < size; ++i)
                dst[i] = page(addr + i)[(addr + i) & (pageBytes - 1)];
        }
    }

    void
    copyTo(Addr addr, const void *in, unsigned size)
    {
        Addr off = addr & (pageBytes - 1);
        if (off + size <= pageBytes) {
            std::memcpy(page(addr) + off, in, size);
        } else {
            auto *src = static_cast<const std::uint8_t *>(in);
            for (unsigned i = 0; i < size; ++i)
                page(addr + i)[(addr + i) & (pageBytes - 1)] = src[i];
        }
    }

    /** An impossible key (real keys are addr >> pageShift < 2^48). */
    static constexpr Addr kNoPage = ~Addr{0};

    static constexpr std::size_t pageCacheEntries = 16;

    struct PendingFill
    {
        Addr offset;  ///< within the page
        Fill fill;
    };

    std::unordered_map<Addr, std::unique_ptr<std::uint8_t[]>> pages_;
    /** Fills waiting for their page's first touch, keyed like pages_. */
    std::unordered_map<Addr, std::vector<PendingFill>> pending_;
    std::array<Addr, pageCacheEntries> pageCacheKey_ = [] {
        std::array<Addr, pageCacheEntries> keys{};
        keys.fill(kNoPage);
        return keys;
    }();
    std::array<std::uint8_t *, pageCacheEntries> pageCachePtr_{};
};

} // namespace adore

#endif // ADORE_MEM_MAIN_MEMORY_HH

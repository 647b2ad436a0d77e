#include "program/code_image.hh"

#include "isa/builder.hh"
#include "support/logging.hh"

namespace adore
{

void
CodeImage::bumpRegions(Addr begin, Addr last)
{
    std::vector<std::uint64_t> &gens =
        begin >= poolBase ? poolGens_ : textGens_;
    Addr base = begin >= poolBase ? poolBase : textBase;
    std::size_t first = static_cast<std::size_t>(begin - base) >> regionShift;
    std::size_t end = static_cast<std::size_t>(last - base) >> regionShift;
    if (end >= gens.size())
        gens.resize(end + 1, 0);
    for (std::size_t r = first; r <= end; ++r) {
        ++gens[r];
        ++regionBumps_;
    }
}

Addr
CodeImage::appendText(const Bundle &bundle)
{
    Addr addr = textBase + text_.size() * isa::bundleBytes;
    text_.push_back(bundle);
    text_.back().padWithNops();
    text_.back().predecodeAll();
    ++textLayout_;  // push_back may reallocate: cached pointers dangle
    bumpRegions(addr, addr);
    return addr;
}

Addr
CodeImage::allocTrace(std::size_t bundles)
{
    Addr addr = tryAllocTrace(bundles);
    panic_if(addr == badAddr,
             "trace pool exhausted: %zu bundles requested, %zu free "
             "of %zu",
             bundles, poolRemaining(), poolCapacity_);
    return addr;
}

Addr
CodeImage::tryAllocTrace(std::size_t bundles)
{
    if (poolCapacity_ != 0 && pool_.size() + bundles > poolCapacity_)
        return badAddr;
    Addr addr = poolBase + pool_.size() * isa::bundleBytes;
    pool_.resize(pool_.size() + bundles);
    ++poolLayout_;  // resize may reallocate: cached pointers dangle
    if (bundles != 0)
        bumpRegions(addr, addr + (bundles - 1) * isa::bundleBytes);
    return addr;
}

void
CodeImage::writeBundle(Addr addr, const Bundle &bundle)
{
    panic_if(!contains(addr), "writeBundle outside image: 0x%llx",
             static_cast<unsigned long long>(addr));
    Bundle padded = bundle;
    padded.padWithNops();
    padded.predecodeAll();
    if (addr >= poolBase)
        pool_[(addr - poolBase) / isa::bundleBytes] = padded;
    else
        text_[(addr - textBase) / isa::bundleBytes] = padded;
    bumpRegions(addr, addr);
}

const Bundle &
CodeImage::fetch(Addr addr) const
{
    const Bundle *bundle = fetchFast(addr);
    panic_if(!bundle, "fetch outside image: 0x%llx",
             static_cast<unsigned long long>(addr));
    return *bundle;
}

bool
CodeImage::contains(Addr addr) const
{
    if (addr >= poolBase)
        return (addr - poolBase) / isa::bundleBytes < pool_.size();
    return addr >= textBase &&
           (addr - textBase) / isa::bundleBytes < text_.size();
}

bool
CodeImage::inText(Addr addr) const
{
    return addr >= textBase && addr < poolBase && contains(addr);
}

void
CodeImage::patch(Addr orig_addr, Addr trace_addr)
{
    panic_if(!inText(orig_addr), "patch target not in text: 0x%llx",
             static_cast<unsigned long long>(orig_addr));
    panic_if(savedBundles_.count(orig_addr),
             "bundle at 0x%llx already patched",
             static_cast<unsigned long long>(orig_addr));

    savedBundles_.emplace(orig_addr, fetch(orig_addr));

    Bundle redirect;
    redirect.add(build::brAlways(trace_addr));
    redirect.padWithNops();
    writeBundle(orig_addr, redirect);
}

void
CodeImage::unpatch(Addr orig_addr)
{
    auto it = savedBundles_.find(orig_addr);
    panic_if(it == savedBundles_.end(), "unpatch of unpatched 0x%llx",
             static_cast<unsigned long long>(orig_addr));
    writeBundle(orig_addr, it->second);
    savedBundles_.erase(it);
}

bool
CodeImage::isPatched(Addr orig_addr) const
{
    return savedBundles_.count(orig_addr) != 0;
}

Addr
CodeImage::textEnd() const
{
    return textBase + text_.size() * isa::bundleBytes;
}

Addr
CodeImage::poolEnd() const
{
    return poolBase + pool_.size() * isa::bundleBytes;
}

int
CodeImage::loopIdAt(Addr pc) const
{
    Addr baddr = isa::bundleAddr(pc);
    if (!contains(baddr))
        return -1;
    const Bundle &bundle = fetch(baddr);
    int slot = isa::slotOf(pc);
    if (slot < bundle.size())
        return bundle.slot(slot).loopId;
    return -1;
}

} // namespace adore

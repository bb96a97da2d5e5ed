/**
 * @file
 * SimHashTable implementation.
 */

#include "workloads/hashtable.hh"

#include <cstddef>

namespace thynvm {

void
SimHashTable::create(MemSpace& mem, std::uint64_t buckets) const
{
    mem.writeT<std::uint64_t>(header_, kMagic);
    mem.writeT<std::uint64_t>(header_ + 8, buckets);
    mem.writeT<std::uint64_t>(header_ + 16, 0); // count
    const Addr arr = heap_.alloc(mem, buckets * 8);
    mem.writeT<std::uint64_t>(header_ + 24, arr);
    for (std::uint64_t b = 0; b < buckets; ++b)
        mem.writeT<std::uint64_t>(arr + b * 8, 0);
}

bool
SimHashTable::find(MemSpace& mem, std::uint64_t key, Addr* value_addr,
                   std::uint32_t* value_len) const
{
    const Addr arr = bucketsAddr(mem);
    const std::uint64_t b = hashKey(key) % nbuckets(mem);
    std::uint64_t node = mem.readT<std::uint64_t>(arr + b * 8);
    while (node != 0) {
        Node n;
        mem.read(node, &n, sizeof(n));
        if (n.key == key) {
            if (value_addr != nullptr)
                *value_addr = n.value_addr;
            if (value_len != nullptr)
                *value_len = n.value_len;
            return true;
        }
        node = n.next;
    }
    return false;
}

void
SimHashTable::insert(MemSpace& mem, std::uint64_t key, const void* value,
                     std::uint32_t len) const
{
    const Addr arr = bucketsAddr(mem);
    const std::uint64_t b = hashKey(key) % nbuckets(mem);
    std::uint64_t node = mem.readT<std::uint64_t>(arr + b * 8);
    while (node != 0) {
        Node n;
        mem.read(node, &n, sizeof(n));
        if (n.key == key) {
            // Update. Reuse the allocation when the size class fits.
            if (SimHeap::classOf(n.value_len) == SimHeap::classOf(len)) {
                mem.write(n.value_addr, value, len);
                if (n.value_len != len) {
                    n.value_len = len;
                    mem.write(node, &n, sizeof(n));
                }
            } else {
                heap_.free(mem, n.value_addr, n.value_len);
                n.value_addr = heap_.alloc(mem, len);
                n.value_len = len;
                mem.write(n.value_addr, value, len);
                mem.write(node, &n, sizeof(n));
            }
            return;
        }
        node = n.next;
    }
    linkAtHead(mem, arr, b, key, value, len);
}

void
SimHashTable::insertAbsent(MemSpace& mem, std::uint64_t key,
                           const void* value, std::uint32_t len) const
{
    const Addr arr = bucketsAddr(mem);
    const std::uint64_t b = hashKey(key) % nbuckets(mem);
    linkAtHead(mem, arr, b, key, value, len);
}

void
SimHashTable::linkAtHead(MemSpace& mem, Addr arr, std::uint64_t b,
                         std::uint64_t key, const void* value,
                         std::uint32_t len) const
{
    Node n{};
    n.key = key;
    n.next = mem.readT<std::uint64_t>(arr + b * 8);
    n.value_addr = heap_.alloc(mem, len);
    n.value_len = len;
    mem.write(n.value_addr, value, len);
    const Addr node_addr = heap_.alloc(mem, sizeof(Node));
    mem.write(node_addr, &n, sizeof(n));
    mem.writeT<std::uint64_t>(arr + b * 8, node_addr);
    mem.writeT<std::uint64_t>(header_ + 16, count(mem) + 1);
}

bool
SimHashTable::erase(MemSpace& mem, std::uint64_t key) const
{
    const Addr arr = bucketsAddr(mem);
    const std::uint64_t b = hashKey(key) % nbuckets(mem);
    Addr link = arr + b * 8;
    std::uint64_t node = mem.readT<std::uint64_t>(link);
    while (node != 0) {
        Node n;
        mem.read(node, &n, sizeof(n));
        if (n.key == key) {
            mem.writeT<std::uint64_t>(link, n.next);
            heap_.free(mem, n.value_addr, n.value_len);
            heap_.free(mem, node, sizeof(Node));
            mem.writeT<std::uint64_t>(header_ + 16, count(mem) - 1);
            return true;
        }
        link = node + offsetof(Node, next);
        node = n.next;
    }
    return false;
}

std::uint64_t
SimHashTable::count(MemSpace& mem) const
{
    return mem.readT<std::uint64_t>(header_ + 16);
}

void
SimHashTable::validate(MemSpace& mem) const
{
    panic_if(mem.readT<std::uint64_t>(header_) != kMagic,
             "hash table header corrupt");
    const Addr arr = bucketsAddr(mem);
    const std::uint64_t buckets = nbuckets(mem);
    std::uint64_t seen = 0;
    for (std::uint64_t b = 0; b < buckets; ++b) {
        std::uint64_t node = mem.readT<std::uint64_t>(arr + b * 8);
        std::uint64_t chain_len = 0;
        while (node != 0) {
            Node n;
            mem.read(node, &n, sizeof(n));
            panic_if(hashKey(n.key) % buckets != b,
                     "node in the wrong bucket");
            panic_if(n.value_addr == 0 && n.value_len != 0,
                     "value pointer corrupt");
            ++seen;
            panic_if(++chain_len > seen,
                     "cycle detected in hash chain");
            node = n.next;
        }
    }
    panic_if(seen != count(mem), "hash table count mismatch");
}

} // namespace thynvm

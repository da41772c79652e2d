/**
 * @file
 * A fixed-capacity FIFO ring for the processor's instruction window
 * (ROB and fetch queue).
 *
 * The capacity is rounded up to a power of two once, at
 * construction, so indexing is a mask and the steady state does no
 * allocation — unlike std::deque, which allocates and frees a block
 * every few entries of a large element type.
 */

#ifndef MCD_SIM_RING_HH
#define MCD_SIM_RING_HH

#include <cstddef>
#include <vector>

#include "util/logging.hh"

namespace mcd::sim
{

template <typename T>
class Ring
{
  public:
    /** A ring holding at least @p min_capacity elements. */
    explicit Ring(std::size_t min_capacity)
    {
        std::size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        buf.resize(cap);
        mask = cap - 1;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return buf[head]; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf[(head + i) & mask]; }

    void
    push_back(const T &v)
    {
        if (count == buf.size())
            panic("ring overflow (capacity %zu)", buf.size());
        buf[(head + count) & mask] = v;
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        --count;
    }

  private:
    std::vector<T> buf;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_RING_HH

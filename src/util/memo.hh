/**
 * @file
 * Compute-once memo table: concurrent requests for one key run its
 * computation once.  The first requester inserts a promise and
 * computes; every later requester blocks on the shared future.
 *
 * A computation that throws hands the original exception to every
 * waiter and erases its entry, so the next request recomputes
 * instead of rethrowing a stale failure (or a broken promise)
 * forever.
 */

#ifndef MCD_UTIL_MEMO_HH
#define MCD_UTIL_MEMO_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace mcd::util
{

template <class V>
class OnceMemo
{
  public:
    /**
     * The value of @p key, computed by @p compute on the first
     * request.  @p computed (optional) receives whether this call
     * was the one that computed it.
     */
    V
    get(const std::string &key, const std::function<V()> &compute,
        bool *computed = nullptr)
    {
        std::promise<V> prom;
        std::shared_future<V> fut;
        bool owner = false;
        {
            std::lock_guard<std::mutex> l(m);
            auto it = map.find(key);
            if (it != map.end()) {
                fut = it->second;
            } else {
                fut = prom.get_future().share();
                map.emplace(key, fut);
                owner = true;
            }
            (owner ? nMisses : nHits)
                .fetch_add(1, std::memory_order_relaxed);
        }
        if (computed)
            *computed = owner;
        if (!owner)
            return fut.get();
        try {
            V v = compute();
            prom.set_value(v);
            return v;
        } catch (...) {
            prom.set_exception(std::current_exception());
            {
                std::lock_guard<std::mutex> l(m);
                map.erase(key);
            }
            throw;
        }
    }

    /** Store a finished value for @p key (last put wins); counts as
     *  neither a hit nor a miss. */
    void
    put(const std::string &key, V v)
    {
        std::promise<V> p;
        p.set_value(std::move(v));
        std::lock_guard<std::mutex> l(m);
        map[key] = p.get_future().share();
    }

    /** Requests served by an entry already present (finished or in
     *  flight). */
    std::uint64_t hits() const { return nHits.load(); }

    /** Requests that ran the computation, including failed ones. */
    std::uint64_t misses() const { return nMisses.load(); }

  private:
    std::mutex m;
    std::unordered_map<std::string, std::shared_future<V>> map;
    std::atomic<std::uint64_t> nHits{0};
    std::atomic<std::uint64_t> nMisses{0};
};

} // namespace mcd::util

#endif // MCD_UTIL_MEMO_HH

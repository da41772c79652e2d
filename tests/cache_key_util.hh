/**
 * @file
 * Shared cache-key schema pins for the test suites.
 *
 * Every memo/CSV key the Runner produces is
 *
 *     <tag><16-hex config fingerprint>|<canonical policy spec>|
 *     <canonical workload spec>|<contextKey>
 *
 * where <tag> is "v<CACHE_VERSION>|c".  Three suites pin this layout
 * (test_policy, test_generate, test_sampling); hoisting the tag and
 * the prefix width here means a CACHE_VERSION bump touches exactly
 * one line instead of three files.  The per-suite *tail* strings stay
 * in their suites — they pin canonical spec spelling, not the schema.
 */

#ifndef MCD_TESTS_CACHE_KEY_UTIL_HH
#define MCD_TESTS_CACHE_KEY_UTIL_HH

#include <cstddef>
#include <string>

namespace mcd::testpins
{

/** Schema tag every cache key must start with.  Bump alongside
 *  CACHE_VERSION in src/exp/experiment.cc (the cache-version-pin
 *  lint keeps the two honest). */
inline constexpr char CACHE_KEY_TAG[] = "v11|c";

/** Tag plus the 16-hex config fingerprint that follows it. */
inline constexpr std::size_t CACHE_KEY_PREFIX_LEN =
    sizeof(CACHE_KEY_TAG) - 1 + 16;

/** True iff the key starts with the current schema tag. */
inline bool
hasCacheKeyTag(const std::string &key)
{
    return key.rfind(CACHE_KEY_TAG, 0) == 0;
}

/** Everything after the tag + fingerprint: "|<policy>|<workload>|
 *  <context>".  Suites compare this against their pinned spellings. */
inline std::string
cacheKeyTail(const std::string &key)
{
    return key.substr(CACHE_KEY_PREFIX_LEN);
}

} // namespace mcd::testpins

#endif

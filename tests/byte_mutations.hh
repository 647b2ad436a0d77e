/**
 * @file
 * Byte-level mutants of a seed document, for the tests that feed the
 * untrusted-input parsers (the serving protocol's JSON and the
 * `kernel v1` reader) inputs they were never written for.
 */

#ifndef ADORE_TESTS_BYTE_MUTATIONS_HH
#define ADORE_TESTS_BYTE_MUTATIONS_HH

#include <cstddef>
#include <string>

#include "support/rng.hh"

namespace adore::testing
{

/**
 * @p seed after one to four random edits: flip one bit, insert a byte
 * (half the time a random byte, else a copy of one of the seed's own,
 * so structural characters recur), delete a byte, or truncate.
 */
inline std::string
mutateBytes(const std::string &seed, Rng &rng)
{
    std::string s = seed;
    for (std::uint64_t edits = 1 + rng.below(4); edits > 0; --edits) {
        switch (rng.below(4)) {
          case 0:
            if (!s.empty())
                s[rng.below(s.size())] ^= static_cast<char>(1 << rng.below(8));
            break;
          case 1: {
            char c = rng.below(2) || seed.empty()
                         ? static_cast<char>(rng.below(256))
                         : seed[rng.below(seed.size())];
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(s.size() + 1)),
                     c);
            break;
          }
          case 2:
            if (!s.empty())
                s.erase(rng.below(s.size()), 1);
            break;
          default:
            s.resize(rng.below(s.size() + 1));
            break;
        }
    }
    return s;
}

} // namespace adore::testing

#endif // ADORE_TESTS_BYTE_MUTATIONS_HH

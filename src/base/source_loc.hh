/**
 * @file
 * Source-location capture for concurrency usage (CU) attribution.
 *
 * The paper instruments Go sources via AST rewriting so every dynamic
 * event maps to exactly one source statement. In C++ the same mapping is
 * obtained with std::source_location default arguments on every public
 * primitive operation: the location of the *caller* (the application
 * statement) is captured at compile time at zero runtime cost.
 */

#ifndef GOAT_BASE_SOURCE_LOC_HH
#define GOAT_BASE_SOURCE_LOC_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <source_location>
#include <string>
#include <string_view>

#include "base/fmt.hh"

namespace goat {

/**
 * A lightweight (file, line) pair identifying one source statement.
 * The file member points at the compiler-interned string literal from
 * std::source_location, so copies are cheap and comparisons can use the
 * string contents.
 */
struct SourceLoc
{
    const char *file = "?";
    uint32_t line = 0;

    SourceLoc() = default;

    SourceLoc(const char *f, uint32_t l) : file(f), line(l) {}

    /** Capture the caller's location (use as a default argument). */
    static SourceLoc
    current(const std::source_location &sl = std::source_location::current())
    {
        return SourceLoc(sl.file_name(), sl.line());
    }

    /** Final path component of the file, as the paper's CU tables show. */
    std::string basename() const { return std::string(basenameView()); }

    /**
     * Final path component as a view into the interned file literal —
     * the allocation-free form hot-path comparisons and coverage key
     * building use.
     */
    std::string_view
    basenameView() const
    {
        const char *slash = std::strrchr(file, '/');
        return std::string_view(slash ? slash + 1 : file);
    }

    /** "file:line" human-readable form. */
    std::string
    str() const
    {
        std::string_view base = basenameView();
        std::string out;
        out.reserve(base.size() + 12);
        out.append(base);
        out += ':';
        char buf[12];
        int n = std::snprintf(buf, sizeof buf, "%u", line);
        out.append(buf, static_cast<size_t>(n));
        return out;
    }

    bool
    operator==(const SourceLoc &o) const
    {
        if (line != o.line)
            return false;
        // Interned literals make pointer equality the common fast path.
        return file == o.file || basenameView() == o.basenameView();
    }

    bool
    operator<(const SourceLoc &o) const
    {
        if (file != o.file) {
            std::string_view a = basenameView(), b = o.basenameView();
            if (a != b)
                return a < b;
        }
        return line < o.line;
    }
};

} // namespace goat

#endif // GOAT_BASE_SOURCE_LOC_HH

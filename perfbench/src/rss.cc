#include "rss.hh"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

/** Sampling period: short against the seconds a campaign's peak lasts. */
constexpr int kPeriodMs = 5;

/** Read a small /proc file into @p buf (NUL-terminated); false on error. */
bool
readProcFile(const char *path, char *buf, size_t cap)
{
    int fd = ::open(path, O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    size_t len = 0;
    while (len + 1 < cap) {
        ssize_t n = ::read(fd, buf + len, cap - 1 - len);
        if (n <= 0)
            break;
        len += static_cast<size_t>(n);
    }
    ::close(fd);
    buf[len] = '\0';
    return len > 0;
}

/** The "<field> N kB" value in the text of a /proc file, in bytes. */
uint64_t
kbField(const char *text, const char *field)
{
    const char *p = std::strstr(text, field);
    return p ? std::strtoull(p + std::strlen(field), nullptr, 10) * 1024 : 0;
}

/** VmRSS of this process. */
uint64_t
selfRss()
{
    char buf[4096];
    return readProcFile("/proc/self/status", buf, sizeof buf)
               ? kbField(buf, "VmRSS:")
               : 0;
}

/** Resident pages of process @p pid that it shares with no other. */
uint64_t
privateResident(const char *pid)
{
    char path[64];
    std::snprintf(path, sizeof path, "/proc/%s/smaps_rollup", pid);
    char buf[4096];
    if (!readProcFile(path, buf, sizeof buf))
        return 0;
    return kbField(buf, "Private_Clean:") + kbField(buf, "Private_Dirty:");
}

} // namespace

uint64_t
treeRssBytes()
{
    uint64_t total = selfRss();
    DIR *tasks = ::opendir("/proc/self/task");
    if (!tasks)
        return total;
    while (struct dirent *t = ::readdir(tasks)) {
        if (t->d_name[0] == '.')
            continue;
        char path[320];
        std::snprintf(path, sizeof path, "/proc/self/task/%s/children",
                      t->d_name);
        char buf[1024];
        if (!readProcFile(path, buf, sizeof buf))
            continue;
        char *save = nullptr;
        for (char *pid = strtok_r(buf, " \n", &save); pid;
             pid = strtok_r(nullptr, " \n", &save))
            total += privateResident(pid);
    }
    ::closedir(tasks);
    return total;
}

RssSampler::RssSampler()
{
    sample();
    thread_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kPeriodMs));
            sample();
        }
    });
}

RssSampler::~RssSampler()
{
    stop_.store(true);
    thread_.join();
}

void
RssSampler::sample()
{
    uint64_t v = treeRssBytes();
    uint64_t cur = window_.load(std::memory_order_relaxed);
    while (v > cur && !window_.compare_exchange_weak(cur, v))
        ;
}

uint64_t
RssSampler::resetWindow()
{
    uint64_t v = treeRssBytes();
    window_.store(v);
    return v;
}

uint64_t
RssSampler::windowPeak()
{
    sample();
    return window_.load();
}

} // namespace perfbench

/**
 * @file
 * Scoped environment override for tests of the environment knobs.
 */

#ifndef MDBENCH_TESTS_ENV_GUARD_H
#define MDBENCH_TESTS_ENV_GUARD_H

#include <cstdlib>
#include <optional>
#include <string>

namespace mdbench {

/** Set an environment variable for one scope, then restore it. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        setenv(name, value, 1);
    }

    ~EnvGuard()
    {
        if (old_)
            setenv(name_, old_->c_str(), 1);
        else
            unsetenv(name_);
    }

    EnvGuard(const EnvGuard &) = delete;
    EnvGuard &operator=(const EnvGuard &) = delete;

  private:
    const char *name_;
    std::optional<std::string> old_;
};

} // namespace mdbench

#endif // MDBENCH_TESTS_ENV_GUARD_H

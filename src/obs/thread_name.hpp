// Thread names for ps/top/gdb and /proc/<pid>/task/<tid>/comm, so a
// thread's CPU can be attributed without knowing the order threads were
// made in. Linux only (a no-op elsewhere); Linux caps a name at 15 bytes.
// A thread names itself: that is one prctl, where naming another thread
// opens and writes its /proc comm file on the spawner's critical path.
#pragma once

#if defined(__linux__)
#include <pthread.h>
#endif

namespace aesip::obs {

inline void name_this_thread(const char* name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#else
  (void)name;
#endif
}

}  // namespace aesip::obs

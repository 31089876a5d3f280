// Compile-time guard for the runtime-dispatched x86 SIMD paths.
//
// CMFL_SIMD_X86 is 1 on x86-64 GCC/Clang builds.  Code under it carries
// per-function `__attribute__((target(...)))` attributes, so every
// translation unit builds with the portable baseline flags; a vector path
// runs only after a one-time `__builtin_cpu_supports` check has confirmed
// the hardware.  Elsewhere the macro is 0 and only the scalar paths exist.
#pragma once

#if (defined(__x86_64__) || defined(__amd64__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CMFL_SIMD_X86 1
#else
#define CMFL_SIMD_X86 0
#endif

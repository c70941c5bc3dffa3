#!/usr/bin/env bash
# Check the vector code the compiler emits for the SIMD layer of
# `hpgmxp-sparse`. A plain-Rust body that quietly stops vectorizing keeps
# its bits and only grows slower, so no test notices; this script does.
#
# It builds the crate's unit-test harness with release optimizations
# (the `bench` profile), emitting assembly with v0 symbol names into
# its own target dir (`$CARGO_TARGET_DIR/asm-check`, default
# `target/asm-check`). The unit tests call every BLAS-1 shape at f64
# and f32, so the harness holds the `avx2` instance `simd::twice!`
# builds for each. Per instance it counts ymm instructions and requires:
#
#   lane_dot                      >= 4 vfmadd231p[sd] (four accumulator registers)
#   axpy_chunk, axpy_lo_chunk     >= 1 vfmadd*p[sd]
#   scal_chunk, scale_into_lo_chunk, waxpby_chunk, axpby_chunk   >= 1 vmulp[sd]
#   widen_f32_f64, narrow_f64_f32 >= 1 256-bit vcvtps2pd / vcvtpd2ps
#
# For these and every kept intrinsic kernel in `simd::x86` (the F16C
# converters and the ELL tile) it also requires that no `retq` leaves
# the upper ymm halves dirty: walking the function in layout order,
# every ymm instruction must be followed by a `vzeroupper` (or a call,
# whose callee returns them clean) before the next `retq`. fp16
# instances are listed but not held to the counts: their software
# widening does not vectorize. Exits 1 on any miss, or when an expected
# instance is missing. Needs `c++filt` from binutils >= 2.36 (v0
# demangling).
#
#   scripts/asm_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-target}/asm-check"
CARGO_TARGET_DIR="$target" cargo rustc --quiet -p hpgmxp-sparse --lib --profile bench -- \
    --emit asm -C symbol-mangling-version=v0 -C codegen-units=1 -C debuginfo=0
# A fresh build leaves the last emitted file in place; take the newest.
asm=$(ls -t "$target"/release/deps/hpgmxp_sparse-*.s | head -n 1)

# One line per function: its demangled name, then the counts.
count() {
    awk '
    function flush() {
        if (name != "") print name, fma231, fma, mul, cvt, rets, bare
    }
    /^_R[A-Za-z0-9_$.]*:$/ {
        flush()
        name = substr($0, 1, length($0) - 1)
        fma231 = fma = mul = cvt = rets = bare = dirty = 0
        next
    }
    name == "" { next }
    /^[ \t]*\./ || /^[.A-Za-z_0-9$]+:/ || /^[ \t]*#/ || /^[ \t]*$/ { next }
    {
        op = $1
        # A 256-bit narrowing from memory names only its xmm result.
        if (op == "vcvtpd2psy") cvt++
        if ($0 ~ /%ymm/) {
            dirty = 1
            if (op ~ /^vfmadd231p[sd]$/) fma231++
            if (op ~ /^vfmadd[0-9]+p[sd]$/) fma++
            if (op ~ /^vmulp[sd]$/) mul++
            if (op == "vcvtps2pd" || op == "vcvtpd2ps") cvt++
        }
        # A callee returns with the upper halves clean.
        if (op == "vzeroupper" || op == "callq") dirty = 0
        if (op == "retq") {
            rets++
            bare += dirty
        }
    }
    END { flush() }
    ' "$asm" | c++filt | sed -E 's/\[[0-9a-f]+\]//g'
}

expected="lane_dot<f64> lane_dot<f32> axpy_chunk<f64> axpy_chunk<f32>
    axpy_lo_chunk<f64> axpy_lo_chunk<f32> scal_chunk<f64> scal_chunk<f32>
    scale_into_lo_chunk<f64> scale_into_lo_chunk<f32> waxpby_chunk<f64>
    waxpby_chunk<f32> axpby_chunk<f64> axpby_chunk<f32> widen_f32_f64 narrow_f64_f32"
status=0
seen=" "
printf '%-60s %6s %4s %4s %4s %4s %4s\n' instance fma231 fma mul cvt rets bare
while read -r name fma231 fma mul cvt rets bare; do
    case "$name" in
        *::tests::*) continue ;;
        hpgmxp_sparse::*::avx2 | hpgmxp_sparse::*::avx2::*) ;;
        hpgmxp_sparse::simd::x86::*) ;;
        *) continue ;;
    esac
    printf '%-60s %6d %4d %4d %4d %4d %4d\n' "$name" "$fma231" "$fma" "$mul" "$cvt" "$rets" "$bare"
    miss=""
    [ "$bare" -eq 0 ] || miss="$bare retq with dirty upper ymm halves;"
    # `a::b::shape::avx2::<f64>` -> `shape<f64>`, `a::shape::avx2` -> `shape`.
    shape=${name%%::avx2*}
    shape=${shape##*::}
    instance="$shape${name##*::avx2}"
    instance=${instance/::/}
    case "$instance" in
        *\<f64\> | *\<f32\> | widen_f32_f64 | narrow_f64_f32)
            seen="$seen$instance "
            case "$shape" in
                lane_dot) [ "$fma231" -ge 4 ] || miss="$miss fewer than 4 ymm vfmadd231" ;;
                axpy_chunk | axpy_lo_chunk) [ "$fma" -ge 1 ] || miss="$miss no ymm vfmadd" ;;
                scal_chunk | scale_into_lo_chunk | waxpby_chunk | axpby_chunk)
                    [ "$mul" -ge 1 ] || miss="$miss no ymm vmulp" ;;
                widen_f32_f64 | narrow_f64_f32) [ "$cvt" -ge 1 ] || miss="$miss no 256-bit vcvt" ;;
            esac
            ;;
    esac
    if [ -n "$miss" ]; then
        echo "  MISS: $miss" >&2
        status=1
    fi
done < <(count)

for instance in $expected; do
    case "$seen" in
        *" $instance "*) ;;
        *)
            echo "MISS: no avx2 instance of $instance in $asm" >&2
            status=1
            ;;
    esac
done
exit "$status"

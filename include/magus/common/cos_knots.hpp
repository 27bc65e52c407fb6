#pragma once
// The knots of the traffic-jitter draw's table cosine (common::table_cos in
// rng.hpp): cos(2*pi*k / 256) for k = 0..255, each the double nearest the
// exact value. sin(2*pi*k / 256) is knot (k - 64) mod 256.
//
// Hex-float literals, so the table is constant-initialized on every
// toolchain (std::cos is not constexpr everywhere). Generated with mpmath at
// 60 significant digits, each value checked to round the same through a
// 45-digit decimal string:
//   [float(mpmath.cos(2 * mpmath.pi * k / 256)) for k in range(256)]
// with the two zeros (k = 64 and 192) set to exactly 0.

namespace magus::common::detail {

inline constexpr double kCosKnots[256] = {
    0x1.0000000000000p+0, 0x1.ffd886084cd0dp-1, 0x1.ff621e3796d7ep-1, 0x1.fe9cdad01883ap-1,
    0x1.fd88da3d12526p-1, 0x1.fc26470e19fd3p-1, 0x1.fa7557f08a517p-1, 0x1.f8764fa714ba9p-1,
    0x1.f6297cff75cb0p-1, 0x1.f38f3ac64e589p-1, 0x1.f0a7efb9230d7p-1, 0x1.ed740e7684963p-1,
    0x1.e9f4156c62ddap-1, 0x1.e6288ec48e112p-1, 0x1.e212104f686e5p-1, 0x1.ddb13b6ccc23cp-1,
    0x1.d906bcf328d46p-1, 0x1.d4134d14dc93ap-1, 0x1.ced7af43cc773p-1, 0x1.c954b213411f5p-1,
    0x1.c38b2f180bdb1p-1, 0x1.bd7c0ac6f952ap-1, 0x1.b728345196e3ep-1, 0x1.b090a58150200p-1,
    0x1.a9b66290ea1a3p-1, 0x1.a29a7a0462782p-1, 0x1.9b3e047f38741p-1, 0x1.93a22499263fbp-1,
    0x1.8bc806b151741p-1, 0x1.83b0e0bff976ep-1, 0x1.7b5df226aafafp-1, 0x1.72d0837efff96p-1,
    0x1.6a09e667f3bcdp-1, 0x1.610b7551d2cdfp-1, 0x1.57d69348ceca0p-1, 0x1.4e6cabbe3e5e9p-1,
    0x1.44cf325091dd6p-1, 0x1.3affa292050b9p-1, 0x1.30ff7fce17035p-1, 0x1.26d054cdd12dfp-1,
    0x1.1c73b39ae68c8p-1, 0x1.11eb3541b4b23p-1, 0x1.073879922ffeep-1, 0x1.f8ba4dbf89abap-2,
    0x1.e2b5d3806f63bp-2, 0x1.cc66e9931c45ep-2, 0x1.b5d1009e15cc0p-2, 0x1.9ef7943a8ed8ap-2,
    0x1.87de2a6aea963p-2, 0x1.7088530fa459fp-2, 0x1.58f9a75ab1fddp-2, 0x1.4135c94176601p-2,
    0x1.294062ed59f06p-2, 0x1.111d262b1f677p-2, 0x1.f19f97b215f1bp-3, 0x1.c0b826a7e4f63p-3,
    0x1.8f8b83c69a60bp-3, 0x1.5e214448b3fc6p-3, 0x1.2c8106e8e613ap-3, 0x1.f564e56a9730ep-4,
    0x1.917a6bc29b42cp-4, 0x1.2d52092ce19f6p-4, 0x1.91f65f10dd814p-5, 0x1.92155f7a3667ep-6,
    0.0, -0x1.92155f7a3667ep-6, -0x1.91f65f10dd814p-5, -0x1.2d52092ce19f6p-4,
    -0x1.917a6bc29b42cp-4, -0x1.f564e56a9730ep-4, -0x1.2c8106e8e613ap-3, -0x1.5e214448b3fc6p-3,
    -0x1.8f8b83c69a60bp-3, -0x1.c0b826a7e4f63p-3, -0x1.f19f97b215f1bp-3, -0x1.111d262b1f677p-2,
    -0x1.294062ed59f06p-2, -0x1.4135c94176601p-2, -0x1.58f9a75ab1fddp-2, -0x1.7088530fa459fp-2,
    -0x1.87de2a6aea963p-2, -0x1.9ef7943a8ed8ap-2, -0x1.b5d1009e15cc0p-2, -0x1.cc66e9931c45ep-2,
    -0x1.e2b5d3806f63bp-2, -0x1.f8ba4dbf89abap-2, -0x1.073879922ffeep-1, -0x1.11eb3541b4b23p-1,
    -0x1.1c73b39ae68c8p-1, -0x1.26d054cdd12dfp-1, -0x1.30ff7fce17035p-1, -0x1.3affa292050b9p-1,
    -0x1.44cf325091dd6p-1, -0x1.4e6cabbe3e5e9p-1, -0x1.57d69348ceca0p-1, -0x1.610b7551d2cdfp-1,
    -0x1.6a09e667f3bcdp-1, -0x1.72d0837efff96p-1, -0x1.7b5df226aafafp-1, -0x1.83b0e0bff976ep-1,
    -0x1.8bc806b151741p-1, -0x1.93a22499263fbp-1, -0x1.9b3e047f38741p-1, -0x1.a29a7a0462782p-1,
    -0x1.a9b66290ea1a3p-1, -0x1.b090a58150200p-1, -0x1.b728345196e3ep-1, -0x1.bd7c0ac6f952ap-1,
    -0x1.c38b2f180bdb1p-1, -0x1.c954b213411f5p-1, -0x1.ced7af43cc773p-1, -0x1.d4134d14dc93ap-1,
    -0x1.d906bcf328d46p-1, -0x1.ddb13b6ccc23cp-1, -0x1.e212104f686e5p-1, -0x1.e6288ec48e112p-1,
    -0x1.e9f4156c62ddap-1, -0x1.ed740e7684963p-1, -0x1.f0a7efb9230d7p-1, -0x1.f38f3ac64e589p-1,
    -0x1.f6297cff75cb0p-1, -0x1.f8764fa714ba9p-1, -0x1.fa7557f08a517p-1, -0x1.fc26470e19fd3p-1,
    -0x1.fd88da3d12526p-1, -0x1.fe9cdad01883ap-1, -0x1.ff621e3796d7ep-1, -0x1.ffd886084cd0dp-1,
    -0x1.0000000000000p+0, -0x1.ffd886084cd0dp-1, -0x1.ff621e3796d7ep-1, -0x1.fe9cdad01883ap-1,
    -0x1.fd88da3d12526p-1, -0x1.fc26470e19fd3p-1, -0x1.fa7557f08a517p-1, -0x1.f8764fa714ba9p-1,
    -0x1.f6297cff75cb0p-1, -0x1.f38f3ac64e589p-1, -0x1.f0a7efb9230d7p-1, -0x1.ed740e7684963p-1,
    -0x1.e9f4156c62ddap-1, -0x1.e6288ec48e112p-1, -0x1.e212104f686e5p-1, -0x1.ddb13b6ccc23cp-1,
    -0x1.d906bcf328d46p-1, -0x1.d4134d14dc93ap-1, -0x1.ced7af43cc773p-1, -0x1.c954b213411f5p-1,
    -0x1.c38b2f180bdb1p-1, -0x1.bd7c0ac6f952ap-1, -0x1.b728345196e3ep-1, -0x1.b090a58150200p-1,
    -0x1.a9b66290ea1a3p-1, -0x1.a29a7a0462782p-1, -0x1.9b3e047f38741p-1, -0x1.93a22499263fbp-1,
    -0x1.8bc806b151741p-1, -0x1.83b0e0bff976ep-1, -0x1.7b5df226aafafp-1, -0x1.72d0837efff96p-1,
    -0x1.6a09e667f3bcdp-1, -0x1.610b7551d2cdfp-1, -0x1.57d69348ceca0p-1, -0x1.4e6cabbe3e5e9p-1,
    -0x1.44cf325091dd6p-1, -0x1.3affa292050b9p-1, -0x1.30ff7fce17035p-1, -0x1.26d054cdd12dfp-1,
    -0x1.1c73b39ae68c8p-1, -0x1.11eb3541b4b23p-1, -0x1.073879922ffeep-1, -0x1.f8ba4dbf89abap-2,
    -0x1.e2b5d3806f63bp-2, -0x1.cc66e9931c45ep-2, -0x1.b5d1009e15cc0p-2, -0x1.9ef7943a8ed8ap-2,
    -0x1.87de2a6aea963p-2, -0x1.7088530fa459fp-2, -0x1.58f9a75ab1fddp-2, -0x1.4135c94176601p-2,
    -0x1.294062ed59f06p-2, -0x1.111d262b1f677p-2, -0x1.f19f97b215f1bp-3, -0x1.c0b826a7e4f63p-3,
    -0x1.8f8b83c69a60bp-3, -0x1.5e214448b3fc6p-3, -0x1.2c8106e8e613ap-3, -0x1.f564e56a9730ep-4,
    -0x1.917a6bc29b42cp-4, -0x1.2d52092ce19f6p-4, -0x1.91f65f10dd814p-5, -0x1.92155f7a3667ep-6,
    0.0, 0x1.92155f7a3667ep-6, 0x1.91f65f10dd814p-5, 0x1.2d52092ce19f6p-4,
    0x1.917a6bc29b42cp-4, 0x1.f564e56a9730ep-4, 0x1.2c8106e8e613ap-3, 0x1.5e214448b3fc6p-3,
    0x1.8f8b83c69a60bp-3, 0x1.c0b826a7e4f63p-3, 0x1.f19f97b215f1bp-3, 0x1.111d262b1f677p-2,
    0x1.294062ed59f06p-2, 0x1.4135c94176601p-2, 0x1.58f9a75ab1fddp-2, 0x1.7088530fa459fp-2,
    0x1.87de2a6aea963p-2, 0x1.9ef7943a8ed8ap-2, 0x1.b5d1009e15cc0p-2, 0x1.cc66e9931c45ep-2,
    0x1.e2b5d3806f63bp-2, 0x1.f8ba4dbf89abap-2, 0x1.073879922ffeep-1, 0x1.11eb3541b4b23p-1,
    0x1.1c73b39ae68c8p-1, 0x1.26d054cdd12dfp-1, 0x1.30ff7fce17035p-1, 0x1.3affa292050b9p-1,
    0x1.44cf325091dd6p-1, 0x1.4e6cabbe3e5e9p-1, 0x1.57d69348ceca0p-1, 0x1.610b7551d2cdfp-1,
    0x1.6a09e667f3bcdp-1, 0x1.72d0837efff96p-1, 0x1.7b5df226aafafp-1, 0x1.83b0e0bff976ep-1,
    0x1.8bc806b151741p-1, 0x1.93a22499263fbp-1, 0x1.9b3e047f38741p-1, 0x1.a29a7a0462782p-1,
    0x1.a9b66290ea1a3p-1, 0x1.b090a58150200p-1, 0x1.b728345196e3ep-1, 0x1.bd7c0ac6f952ap-1,
    0x1.c38b2f180bdb1p-1, 0x1.c954b213411f5p-1, 0x1.ced7af43cc773p-1, 0x1.d4134d14dc93ap-1,
    0x1.d906bcf328d46p-1, 0x1.ddb13b6ccc23cp-1, 0x1.e212104f686e5p-1, 0x1.e6288ec48e112p-1,
    0x1.e9f4156c62ddap-1, 0x1.ed740e7684963p-1, 0x1.f0a7efb9230d7p-1, 0x1.f38f3ac64e589p-1,
    0x1.f6297cff75cb0p-1, 0x1.f8764fa714ba9p-1, 0x1.fa7557f08a517p-1, 0x1.fc26470e19fd3p-1,
    0x1.fd88da3d12526p-1, 0x1.fe9cdad01883ap-1, 0x1.ff621e3796d7ep-1, 0x1.ffd886084cd0dp-1,
};

}  // namespace magus::common::detail

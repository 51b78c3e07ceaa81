import math
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

import xduce
from xduce import Mode, TransducerConfig
from xduce.core import _Frozen

TWO_PI = 2.0 * math.pi

SHIPPED_FIXTURE = Path(__file__).resolve().parent.parent / "configs" / "device.ini"
GOLDEN_CSV = Path(__file__).resolve().parent / "data" / "golden_sweep.csv"


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"configs/device.ini no longer has one {old!r}")
    return text.replace(old, new)


_SHIPPED_TEXT = SHIPPED_FIXTURE.read_text()
# The shipped [device] section alone, and the shipped config at 6 power points
# with a {table} slot: the config behind the golden CSV, which the benchmark's
# golden check also derives from configs/device.ini.
DEVICE_SECTION = _SHIPPED_TEXT[_SHIPPED_TEXT.index("[device]\n"):_SHIPPED_TEXT.index("\n[drive]\n")]
GOLDEN_TEMPLATE = _replace_once(
    _replace_once(_SHIPPED_TEXT, "power_points = 16\n", "power_points = 6\n"),
    "[output]\n", "[output]\ntable = {table}\n")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def set_field(text, section, field, value):
    """``text`` with ``field`` set to ``value``, added to ``[section]`` if absent."""
    line = f"{field} = {value}"
    if re.search(rf"^{field} = ", text, flags=re.M):
        return re.sub(rf"^{field} = .*$", lambda _: line, text, flags=re.M)
    return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")


def shipped_text(*changes) -> str:
    """The shipped config with each ``(section, field, value)`` change made."""
    text = _SHIPPED_TEXT
    for section, field, value in changes:
        text = set_field(text, section, field, value)
    return text


def log_uniform(lo: float, hi: float):
    """Floats 10^e for e drawn uniformly from [lo, hi]."""
    return st.floats(lo, hi).map(lambda exponent: 10.0 ** exponent)


def truncated_error_probability(mu, nmax=20):
    """Independent oracle: exhaustive truncated-Poisson classification."""
    import numpy as np
    from scipy.stats import poisson

    pmf = poisson.pmf(np.arange(nmax + 1), mu)
    total = 0.0
    for n_a in range(nmax + 1):
        for n_b in range(nmax + 1):
            if (n_a == 1 and n_b == 1) or n_a >= 2 or n_b >= 2:
                total += pmf[n_a] * pmf[n_b]
    return float(total)


# Golden-section interval shrink factor per iteration.
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_MAX_ITER = 80
GOLDEN_RTOL = 1e-9


def golden_section_max(f, lo: float, hi: float):
    """Golden-section maximum of a unimodal f on [lo, hi]: an independent
    search that cross-checks the closed-form optimum.

    Returns (x, f(x), iterations). The interval shrinks by the inverse
    golden ratio each iteration, so 80 iterations cover bracket ratios
    far beyond 1e6 at 1e-9 relative tolerance.
    """
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while (b - a) > GOLDEN_RTOL * (abs(a) + abs(b)) / 2.0 and iterations < GOLDEN_MAX_ITER:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
        iterations += 1
    x = (a + b) / 2.0
    return x, f(x), iterations


def make_device(
    kappa_a_i=TWO_PI * 10e6,
    kappa_a_ex=TWO_PI * 20e6,
    kappa_b_i=0.5,
    kappa_b_ex=TWO_PI * 1000.0,
    g_eo=TWO_PI * 40.0,
) -> TransducerConfig:
    """Illustrative telecom-optical / 9 GHz microwave device.

    The microwave intrinsic loss of 0.5 rad/s corresponds to a 2 s photon
    lifetime. The numbers are a plausible design point, not a reproduction
    of any specific hardware.
    """
    return TransducerConfig(
        mode_a=Mode("a", TWO_PI * 193.5e12, kappa_a_i, kappa_a_ex),
        mode_b=Mode("b", TWO_PI * 9e9, kappa_b_i, kappa_b_ex),
        mode_p=Mode("p", TWO_PI * 193.5e12, TWO_PI * 15e6, TWO_PI * 15e6),
        g_eo=g_eo,
    )


@pytest.fixture
def device() -> TransducerConfig:
    return make_device()


def checked_float_types() -> set:
    """The exported value types with a float field checked at construction:
    one annotated with a float kind of ``core`` (``Finite``, ``Positive`` or
    ``NonNegative``, also inside a tuple or ``| None``)."""
    exported = (getattr(xduce, name) for name in xduce.__all__)
    return {value for value in exported
            if isinstance(value, type) and issubclass(value, _Frozen)
            and any(re.search(r"\b(Finite|Positive|NonNegative)\b", annotation)
                    for annotation in value.__annotations__.values())}


def reference_block_error_count(seed: int, block: int, n: int, f0: float, f1: float) -> int:
    """Error events among n trials of one MC block, drawn the direct way: two
    whole arrays of ``Generator.random`` doubles from the (seed, block) Philox
    stream, ``u_a`` first and then ``u_b``. An oracle for the sampler's bits."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block))))
    u_a = rng.random(n)
    u_b = rng.random(n)
    errors = ((u_a >= f0) & (u_b >= f0)) | (u_a >= f1) | (u_b >= f1)
    return int(np.count_nonzero(errors))

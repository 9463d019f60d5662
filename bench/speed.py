"""Machine-speed reference, to report times at a fixed machine speed.

On the 2-core shared VM where this benchmark was defined, one 30-s run
measured every instance of a workload 1.6-2.2x slower than another run a
few minutes later, uniformly across instances: the machine, not the
inputs, changed speed.  Raw wall times then cannot detect a regression
smaller than 2x.  So each run also times a fixed reference loop of
interpreter, big-integer and numpy work (the mix sumcore spends its time
in), interleaved with the instances.  The pass's slowdown factor is

    median(reference times taken during the pass) / REF_NOMINAL_S

The median, not the mean: per-instance times are medians of repeats,
which mostly miss the machine's slow bursts.  Scaled by a (trimmed) mean
factor, a 9 ms instance read 7.1 ms in a run whose bursts raised that
factor to 1.2 while the instance itself ran at nominal speed.

Per-instance times are divided by the factor.  A pass's total is divided
by the factor to the power PASS_ELASTICITY: when the machine slows, the
loop (big-integer heavy) slows more than a whole pass does.  In slow
periods the loop slowed 1.9x while whole passes slowed 1.46x (materialize;
slope 0.6 in log-log), and over 200 samples in five minutes single
instances had slopes 0.60-0.78.  Instances of the size that sets
instance_p50_ms and instance_tail_ms (3-150 ms) did track the plain
factor: scaled by it, their 10-seed medians stayed within 10% between quiet
and slow batches, while the power 0.6 left them 30% high in the slow
batch.  Divided by the plain factor, pass totals of slow periods read up
to 25% low and the 10-seed spread of solve_s reached 0.23; with the power
0.6 it stayed at or below 0.10 on the same runs.

The loop alone does not track what slows a fresh interpreter: scaled by
it, subprocess times spread more over ten runs (0.11 to 0.24 of the
median) than raw (0.09 to 0.17).  A fresh interpreter spends its set-up
importing, so each set-up probe is paired with its own reference instead:
a fresh interpreter that imports numpy and runs the loop eight times,
right after it.  The median of the per-pair ratios, times
SETUP_REF_NOMINAL_S, is the set-up time (run.py).  Raw, the median set-up
moved between 0.11 s and 0.26 s from run to run (up to 0.38 s in the
slowest periods).  A reference that only imported numpy kept the ratio
within 2-6% in quiet periods, but in the slowest it fell by 24% for the
certify set-up; with the loop added it fell by 13% there.  The CLI cases
and interpreter start-up are reported as measured.  Both references
belong to the benchmark, so no change to sumcore can move them.  Runs
print the raw times and the factors as well.
"""

import statistics
import time

import numpy as np

# The reference time of an uncontended machine where the benchmark was
# defined (2-core VM, Python 3.11.7, numpy 2.4.6: 4.9-5.0 ms, the stable
# minimum of many samples).  Only the scale of reported times depends on it.
REF_NOMINAL_S = 0.005
# Likewise for the set-up reference (probe_setup.py --reference): numpy's
# import at 0.054-0.060 s plus eight loops at 5 ms, at the quiet low end.
SETUP_REF_NOMINAL_S = 0.10
# How a whole pass slows relative to the reference loop (see above).
PASS_ELASTICITY = 0.6

_BITS = int.from_bytes(bytes((i * 151 + 7) % 256 for i in range(2048)), "little") | 1
_ARRAY = np.arange(1 << 16, dtype=np.int64) % 7


def _reference():
    acc = 0
    for i in range(2500):
        y = (_BITS >> (i & 255)) & _BITS
        acc += y.bit_count() + (i * i) % 7
    return acc + int(np.cumsum(_ARRAY)[-1])


class Speed:
    def __init__(self):
        self.samples = []

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            _reference()
            self.samples.append(time.perf_counter() - t0)

    def mark(self):
        return len(self.samples)

    def factor(self, since=0):
        """How much slower than nominal the machine typically ran since
        ``since``: its median sample over the nominal time."""
        return statistics.median(self.samples[since:]) / REF_NOMINAL_S

#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_benchlib.py

The rel_error agreement test builds pbtool into .bench_build first (the
same build run.py makes), so it needs a full checkout.
"""
from __future__ import annotations

import os
import random
import subprocess
import tempfile
import time
import unittest

import benchlib
import run


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(values, 0.5), 50)
        self.assertEqual(benchlib.nearest_rank(values, 0.99), 99)
        self.assertEqual(benchlib.nearest_rank(values, 1.0), 100)
        self.assertEqual(benchlib.nearest_rank([7.0], 0.5), 7.0)
        self.assertEqual(benchlib.nearest_rank([1, 2, 3], 0.5), 2)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 0.5)

    def test_tail_keeps_ten_samples_beyond(self):
        # (samples, expected percentile): p99 needs n - ceil(0.99 n) >= 10.
        for n, q in ((1000, 0.99), (999, 0.9), (100, 0.9), (99, 0.75),
                     (41, 0.75), (40, 0.75), (39, 0.5), (5, 0.5)):
            values = [float(v) for v in range(n)]
            random.Random(n).shuffle(values)
            got_q, got = benchlib.tail(values)
            self.assertEqual(got_q, q, n)
            self.assertEqual(got, benchlib.nearest_rank(sorted(values), q))
            if q < 0.99 and n >= 20:
                rank = n - sum(1 for v in values if v > got)
                self.assertGreaterEqual(n - rank, benchlib.TAIL_MIN_BEYOND)


class GeneratorTest(unittest.TestCase):
    def test_poisson_schedule_is_seeded(self):
        a = benchlib.poisson_offsets_us(benchlib.seeded("w", 7), 1000.0, 2.0)
        b = benchlib.poisson_offsets_us(benchlib.seeded("w", 7), 1000.0, 2.0)
        c = benchlib.poisson_offsets_us(benchlib.seeded("w", 8), 1000.0, 2.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        self.assertEqual(a, sorted(a))
        self.assertTrue(all(0 <= t < 2_000_000 for t in a))
        self.assertLess(abs(len(a) - 2000), 200)  # ~4.5 sigma

    def test_boxes_are_seeded_and_in_band(self):
        a = benchlib.boxes(benchlib.seeded("w", 1), 500)
        self.assertEqual(a, benchlib.boxes(benchlib.seeded("w", 1), 500))
        self.assertNotEqual(a, benchlib.boxes(benchlib.seeded("w", 2), 500))
        for x0, x1, y0, y1 in a:
            self.assertTrue(0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0)
            self.assertTrue(1e-3 * (1 - 1e-9) <= (x1 - x0) * (y1 - y0)
                            <= 1e-2 * (1 + 1e-9))

    def test_plan_depends_on_seed_only(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.make_plan(workload, 5, 10, False),
                             run.make_plan(workload, 5, 10, False))
            self.assertNotEqual(run.make_plan(workload, 5, 10, False),
                                run.make_plan(workload, 6, 10, False))

    def test_binned_rate(self):
        times = [i * 1e4 for i in range(100)]  # 100 completions over 1 s.
        self.assertAlmostEqual(benchlib.binned_rate(times, 1.0), 100.0)
        stalled = [t for t in times if not 2e5 <= t < 3e5]  # One bin lost.
        self.assertAlmostEqual(benchlib.binned_rate(stalled, 1.0), 100.0)


class ProcReaderTest(unittest.TestCase):
    def test_cpu_seconds_match_os_times(self):
        deadline = time.process_time() + 0.3
        while time.process_time() < deadline:
            pass
        times = os.times()
        ours = benchlib.proc_cpu_seconds(os.getpid())
        self.assertAlmostEqual(ours, times.user + times.system, delta=0.05)

    def test_cpu_seconds_of_child(self):
        child = subprocess.Popen(
            ["python3", "-c",
             "import time\nt=time.process_time()+0.5\n"
             "while time.process_time()<t: pass\ninput()"],
            stdin=subprocess.PIPE, text=True)
        try:
            time.sleep(1.5)
            self.assertAlmostEqual(benchlib.proc_cpu_seconds(child.pid), 0.5,
                                   delta=0.25)
        finally:
            child.communicate("\n")

    def test_vmhwm_tracks_peak(self):
        before = benchlib.proc_vmhwm_kb(os.getpid())
        block = bytearray(64 << 20)
        block[::4096] = b"x" * len(block[::4096])  # Touch every page.
        after = benchlib.proc_vmhwm_kb(os.getpid())
        del block
        self.assertGreaterEqual(after - before, 48 << 10)
        # The peak survives the free (the kernel syncs its per-thread RSS
        # counters lazily, so allow a few pages of drift).
        self.assertGreater(benchlib.proc_vmhwm_kb(os.getpid()), after - 1024)

    def test_host_ticks(self):
        steal0, total0 = benchlib.host_cpu_ticks()
        time.sleep(0.05)
        steal1, total1 = benchlib.host_cpu_ticks()
        self.assertLessEqual(steal0, total0)
        self.assertGreaterEqual(total1, total0)
        pct = benchlib.steal_pct((steal0, total0), (steal1, total1))
        self.assertTrue(0.0 <= pct <= 100.0)


class RelErrorTest(unittest.TestCase):
    def test_hand_computed(self):
        # n = 10000 gives the smoothing 10: |12-10|/10, |0-5|/10, |90-100|/100.
        got = benchlib.mean_relative_error([12, 0, 90], [10, 5, 100], 10000)
        self.assertAlmostEqual(got, (0.2 + 0.5 + 0.1) / 3)

    def test_agrees_with_eval_mean_relative_error(self):
        run.build()
        rng = random.Random(3)
        exact = [float(rng.randint(0, 3000)) for _ in range(500)]
        estimates = [e + rng.gauss(0, 40) for e in exact]
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            paths = {}
            for name, values in (("exact", exact), ("answers", estimates)):
                paths[name] = os.path.join(tmp, name)
                with open(paths[name], "w") as f:
                    f.write("\n".join(repr(v) for v in values) + "\n")
            out = subprocess.run(
                [os.path.join(run.BUILD, "pbtool"), "mre",
                 f"--exact={paths['exact']}", f"--answers={paths['answers']}",
                 "--points=200000"],
                capture_output=True, text=True, check=True).stdout
        ours = benchlib.mean_relative_error(estimates, exact, 200000)
        self.assertAlmostEqual(float(out), ours, delta=1e-12 * ours)


if __name__ == "__main__":
    unittest.main()

"""Flag validation of perfbench/run.py: a bad command line prints usage and
exits 2 before anything is built.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=60)


class FlagValidation(unittest.TestCase):
    BAD = [
        [],
        ["--workload", "paper"],
        ["--workload", "nosuch", "--seed", "1", "--seconds", "1"],
        ["--workload", "paper", "--seed", "-1", "--seconds", "1"],
        ["--workload", "paper", "--seed", "x", "--seconds", "1"],
        ["--workload", "paper", "--seed", "1", "--seconds", "0"],
        ["--workload", "paper", "--seed", "1", "--seconds", "2.5"],
        ["--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--workload", "paper", "--seed", "1", "--seconds", "1", "--bogus", "1"],
    ]

    def test_bad_flags_print_usage_and_exit_2(self):
        for args in self.BAD:
            with self.subTest(args=args):
                proc = run(*args)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")
                self.assertIn("usage:", proc.stderr)

    def test_help_exits_0(self):
        proc = run("--help")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("--workload", proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of tools/profile.py's pure parts: symbol attribution and the
parsers of the sampler's and addr2line's output.

    python3 tools/test_profile.py
"""

import os
import sys
import unittest
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import profile as p  # noqa: E402


class Attribution(unittest.TestCase):
    def test_crate_of_plain_and_impl_names(self):
        self.assertEqual(p.crate_of("lp_sim::mc::CmdQueue::schedule"), "lp_sim")
        self.assertEqual(p.crate_of("lp_sim::cache::Cache<W>::find::{{closure}}"), "lp_sim")
        self.assertEqual(
            p.crate_of("<lp_sim::cache::L1Line as lp_sim::cache::Way>::holds"), "lp_sim")
        self.assertEqual(
            p.crate_of("<alloc::vec::Vec<T,A> as core::ops::drop::Drop>::drop"), "alloc")

    def test_crate_of_primitive_and_generic_self_types(self):
        self.assertEqual(p.crate_of("<usize as core::iter::range::Step>::forward"), "core")
        self.assertEqual(p.crate_of("<usize>::unchecked_add"), "core")
        self.assertEqual(p.crate_of("<&T as core::fmt::Debug>::fmt"), "core")
        self.assertEqual(p.crate_of("<[T]>::copy_from_slice"), "core")

    def test_module_of(self):
        self.assertEqual(p.module_of("lp_sim::mc::MemCtrl::schedule_read"), "lp_sim::mc")
        self.assertEqual(
            p.module_of("<lp_sim::cache::L1Line as lp_sim::cache::Way>::holds"), "lp_sim::cache")
        self.assertEqual(p.module_of("lp_sim::cache::Cache<W>::new"), "lp_sim::cache")
        self.assertEqual(p.module_of("perfbench::main"), "perfbench::main")

    def test_innermost_workspace_frame_wins(self):
        frames = ["core::ptr::write", "alloc::vec::Vec<T,A>::push",
                  "lp_sim::cache::Cache<W>::fill", "lp_sim::memsys::MemSystem::install_in_l1"]
        self.assertEqual(p.attribute(frames), ("lp_sim::cache::Cache<W>::fill", "lp_sim"))
        self.assertEqual(p.attribute(["core::ptr::write", "std::rt::lang_start"]),
                         ("core::ptr::write", "core"))
        self.assertEqual(p.attribute([]), ("??", "??"))
        self.assertEqual(p.attribute(["??"]), ("??", "??"))


class Parsing(unittest.TestCase):
    def test_addr2line_inline_chains(self):
        text = "\n".join([
            "0x0000000000001000",
            "lp_sim::cache::Cache<W>::find::h0123456789abcdef",
            "/src/cache.rs:270",
            "lp_sim::memsys::MemSystem::l1_probe",
            "/src/memsys.rs:761",
            "0x0000000000002000",
            "??",
            "??:0",
        ])
        self.assertEqual(p.parse_addr2line(text), {
            0x1000: ["lp_sim::cache::Cache<W>::find", "lp_sim::memsys::MemSystem::l1_probe"],
            0x2000: ["??"],
        })

    def test_strip_hash_keeps_other_names(self):
        self.assertEqual(p.strip_hash("a::b::h0123456789abcdef"), "a::b")
        self.assertEqual(p.strip_hash("a::helper"), "a::helper")

    def test_samples_file(self):
        text = "\n".join([
            "exe /bin/prog",
            "module 1000 1000 5000 ",
            "module 7000 7100 7900 /lib/libc.so.6",
            "samples 3 dropped 1",
            "1010", "7150", "9000", "",
        ])
        exe, modules, pcs, dropped = p.parse_samples(text)
        self.assertEqual(exe, "/bin/prog")
        self.assertEqual(modules, [(0x1000, 0x5000, 0x1000, ""),
                                   (0x7100, 0x7900, 0x7000, "/lib/libc.so.6")])
        self.assertEqual(pcs, [0x1010, 0x7150, 0x9000])
        self.assertEqual(dropped, 1)
        self.assertEqual([p.module_at(modules, pc) for pc in pcs], [0, 1, None])

    def test_tables_sum_per_crate_and_module(self):
        counts = Counter({("lp_sim::mc::MemCtrl::schedule_read", "lp_sim"): 3,
                          ("lp_sim::cache::Cache<W>::find", "lp_sim"): 1,
                          ("[libc.so.6]", "[libc.so.6]"): 4})
        text, by_crate = p.tables(counts, 8, 0, 5)
        self.assertEqual(by_crate, Counter({"lp_sim": 4, "[libc.so.6]": 4}))
        self.assertIn("| lp_sim::mc | 3 | 37.5% |", text)
        self.assertIn("| `[libc.so.6]` | 4 | 50.0% |", text)


if __name__ == "__main__":
    unittest.main()

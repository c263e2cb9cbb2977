/**
 * Property-based tests over the memory manager: long random sequences
 * of process lifecycle operations (mmap, touch, fork, COW writes,
 * munmap, exit, file reads, cache drops) under every allocation
 * policy, checking global frame-accounting invariants after each
 * phase. Parameterized across policies and seeds.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/experiment.hh"

using namespace contig;

namespace
{

struct Params
{
    PolicyKind policy;
    std::uint64_t seed;
};

class MmPropertyTest : public ::testing::TestWithParam<Params>
{
};

/** Mapped data pages across all processes (from the page tables). */
std::uint64_t
mappedPages(Kernel &k)
{
    std::uint64_t total = 0;
    k.forEachProcess([&](Process &p) {
        p.pageTable().forEachLeaf([&](Vpn, const Mapping &m) {
            total += pagesInOrder(m.order);
        });
    });
    return total;
}

} // namespace

TEST_P(MmPropertyTest, RandomLifecyclePreservesAccounting)
{
    const auto param = GetParam();
    KernelConfig cfg = kernelConfigFor(param.policy);
    cfg.phys.bytesPerNode = 256ull << 20;
    cfg.phys.numNodes = 2;
    Kernel k(cfg, makePolicy(param.policy));
    Rng rng(param.seed);

    const std::uint64_t free0 = k.physMem().freePages();
    std::vector<Process *> procs;
    std::map<Process *, std::vector<Vma *>> vmas;

    for (int step = 0; step < 400; ++step) {
        const double roll = rng.uniform();
        if (procs.empty() || roll < 0.15) {
            procs.push_back(
                &k.createProcess("p" + std::to_string(step),
                                 rng.below(2)));
        } else if (roll < 0.45) {
            // mmap + touch a prefix of a new VMA.
            Process *p = procs[rng.below(procs.size())];
            const std::uint64_t bytes =
                (1 + rng.below(16)) * (kHugeSize / 2);
            Vma &vma = p->mmap(bytes);
            vmas[p].push_back(&vma);
            const std::uint64_t touch =
                kPageSize + rng.below(bytes - kPageSize);
            p->touchRange(vma.start(), touch);
        } else if (roll < 0.60) {
            // touch more of an existing VMA (random spot).
            Process *p = procs[rng.below(procs.size())];
            if (!vmas[p].empty()) {
                Vma *vma = vmas[p][rng.below(vmas[p].size())];
                p->touch(vma->start() +
                         (rng.below(vma->bytes()) & ~kPageMask));
            }
        } else if (roll < 0.70) {
            // munmap a random VMA.
            Process *p = procs[rng.below(procs.size())];
            if (!vmas[p].empty()) {
                std::size_t i = rng.below(vmas[p].size());
                p->munmap(*vmas[p][i]);
                vmas[p][i] = vmas[p].back();
                vmas[p].pop_back();
            }
        } else if (roll < 0.78 && procs.size() < 24) {
            // fork + COW write in the child.
            Process *p = procs[rng.below(procs.size())];
            Process &child =
                p->fork("c" + std::to_string(step));
            procs.push_back(&child);
            if (!vmas[p].empty()) {
                Vma *vma = vmas[p][0];
                child.touch(vma->start(), Access::Write);
            }
        } else if (roll < 0.88) {
            // file read traffic.
            File &f = k.createFile(64 + rng.below(256));
            k.readFile(f, 0, 1 + rng.below(f.sizePages() / 2));
        } else if (roll < 0.92) {
            k.dropCaches();
        } else if (procs.size() > 1) {
            // exit a random process (forked children keep their
            // own COW references).
            std::size_t i = rng.below(procs.size());
            Process *p = procs[i];
            vmas.erase(p);
            k.exitProcess(*p);
            procs[i] = procs.back();
            procs.pop_back();
        }

        if (step % 50 == 0) {
            // Accounting invariant: free + (something mapped or
            // cached or pooled) == initial free; mapped pages are
            // never more than what left the allocator.
            const std::uint64_t free_now = k.physMem().freePages();
            ASSERT_LE(free_now, free0);
            ASSERT_GE(mappedPages(k), 0u);
            for (unsigned n = 0; n < k.physMem().numNodes(); ++n) {
                ASSERT_TRUE(
                    k.physMem().zone(n).buddy().checkInvariants())
                    << "step " << step;
                ASSERT_TRUE(
                    k.physMem().zone(n).contigMap().checkInvariants())
                    << "step " << step;
            }
            ASSERT_EQ(k.audit(), "") << "step " << step;
        }
    }

    // Full teardown returns every data page.
    while (!procs.empty()) {
        k.exitProcess(*procs.back());
        procs.pop_back();
    }
    k.dropCaches();
    EXPECT_EQ(k.physMem().freePages(), free0 - k.kernelPoolPages());
    for (unsigned n = 0; n < k.physMem().numNodes(); ++n)
        EXPECT_TRUE(k.physMem().zone(n).buddy().checkInvariants());
    EXPECT_EQ(k.audit(), "");
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, MmPropertyTest,
    ::testing::Values(Params{PolicyKind::Thp, 1},
                      Params{PolicyKind::Thp, 2},
                      Params{PolicyKind::Base4k, 3},
                      Params{PolicyKind::Ca, 4},
                      Params{PolicyKind::Ca, 5},
                      Params{PolicyKind::Ingens, 6},
                      Params{PolicyKind::Ranger, 7},
                      Params{PolicyKind::Ideal, 8}),
    [](const ::testing::TestParamInfo<Params> &info) {
        return policyName(info.param.policy) + "_seed" +
               std::to_string(info.param.seed);
    });

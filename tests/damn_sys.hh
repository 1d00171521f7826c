/**
 * @file
 * Test fixture shared by the edge, release and net suites: a System
 * with one NIC, under the DAMN scheme unless told otherwise.
 */

#ifndef DAMN_TESTS_DAMN_SYS_HH
#define DAMN_TESTS_DAMN_SYS_HH

#include <memory>

#include "net/nic.hh"
#include "net/system.hh"

namespace damn::test {

struct DamnSys
{
    explicit DamnSys(dma::SchemeKind scheme = dma::SchemeKind::Damn)
    {
        net::SystemParams p;
        p.scheme = scheme;
        sys = std::make_unique<net::System>(p);
        nic = std::make_unique<net::NicDevice>(*sys, "mlx5_0");
    }

    sim::CpuCursor
    cpu(sim::CoreId c = 0)
    {
        return sim::CpuCursor(sys->ctx.machine.core(c), sys->ctx.now());
    }

    std::unique_ptr<net::System> sys;
    std::unique_ptr<net::NicDevice> nic;
};

} // namespace damn::test

#endif // DAMN_TESTS_DAMN_SYS_HH

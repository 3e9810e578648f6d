//! Property-based tests for the guest-kernel substrate: VFS/pipe data
//! integrity and cost-model monotonicity.

use proptest::prelude::*;
use xc_libos::backend::Backend;
use xc_libos::config::KernelConfig;
use xc_libos::net::{NetPath, NetStack};
use xc_libos::pipe::Pipe;
use xc_libos::vfs::Vfs;
use xc_sim::cost::CostModel;

proptest! {
    /// Pipes are exact FIFOs: any interleaving of writes and reads
    /// reproduces the written byte stream in order.
    #[test]
    fn pipe_preserves_byte_stream(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..256),
        1..32,
    )) {
        let costs = CostModel::skylake_cloud();
        let mut pipe = Pipe::with_capacity(64 * 1024);
        let mut written = Vec::new();
        let mut read_back = Vec::new();
        let mut buf = [0u8; 128];
        for chunk in &chunks {
            let mut offset = 0;
            while offset < chunk.len() {
                match pipe.write(&chunk[offset..], &costs) {
                    Ok((n, _)) => {
                        written.extend_from_slice(&chunk[offset..offset + n]);
                        offset += n;
                    }
                    Err(_) => {
                        // Full: drain some.
                        let (n, _) = pipe.read(&mut buf, &costs).unwrap();
                        read_back.extend_from_slice(&buf[..n]);
                    }
                }
            }
        }
        while let Ok((n, _)) = pipe.read(&mut buf, &costs) {
            read_back.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(read_back, written);
    }

    /// The VFS stores and returns exact bytes at arbitrary offsets.
    #[test]
    fn vfs_read_back_exact(
        writes in proptest::collection::vec(
            (0usize..4096, proptest::collection::vec(any::<u8>(), 1..512)),
            1..16,
        )
    ) {
        let costs = CostModel::skylake_cloud();
        let mut fs = Vfs::new();
        fs.create("/f").unwrap();
        let fd = fs.open("/f").unwrap();
        let mut shadow: Vec<u8> = Vec::new();
        for (offset, data) in &writes {
            if shadow.len() < offset + data.len() {
                shadow.resize(offset + data.len(), 0);
            }
            shadow[*offset..offset + data.len()].copy_from_slice(data);
            fs.seek(fd, *offset).unwrap();
            fs.write(fd, data, &costs).unwrap();
        }
        fs.seek(fd, 0).unwrap();
        let mut out = vec![0u8; shadow.len()];
        let mut pos = 0;
        while pos < out.len() {
            let (n, _) = fs.read(fd, &mut out[pos..], &costs).unwrap();
            if n == 0 { break; }
            pos += n;
        }
        prop_assert_eq!(out, shadow);
    }

    /// Network costs are monotone in payload size for every path.
    #[test]
    fn net_costs_monotone(small in 1u64..32_768, delta in 1u64..32_768) {
        let costs = CostModel::skylake_cloud();
        for path in [
            NetPath::NativeBridge { iptables_rules: 1 },
            NetPath::KernelForward { responses_return: true },
        ] {
            let stack = NetStack::new(Backend::Native, KernelConfig::docker_default(), path);
            prop_assert!(stack.send_cost(&costs, small + delta) >= stack.send_cost(&costs, small));
            prop_assert!(stack.recv_cost(&costs, small + delta) >= stack.recv_cost(&costs, small));
        }
    }

    /// Syscall dispatch cost ordering holds for any KPTI combination:
    /// optimized X-Kernel ≤ native ≤ PV-forwarded.
    #[test]
    fn backend_ordering_stable(kpti in any::<bool>()) {
        let costs = CostModel::skylake_cloud();
        let mut cfg = KernelConfig::docker_default();
        cfg.kpti = kpti;
        let xk = Backend::XKernel.syscall_cost(&costs, &cfg, true);
        let native = Backend::Native.syscall_cost(&costs, &cfg, false);
        let pv = Backend::XenPv.syscall_cost(&costs, &cfg, false);
        prop_assert!(xk < native);
        prop_assert!(native < pv);
    }
}

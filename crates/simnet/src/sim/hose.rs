//! Hose epochs: the pacers' pairwise rate coordination (paper §4.3).

use super::{Ev, Sim};
use crate::config::TransportMode;
use crate::tcp::TcpConn;
use silo_base::Rate;
use silo_pacer::hose_share;

impl Sim {
    /// The periodic hose epoch: recompute every tenant's pairwise rates
    /// with [`Sim::tenant_hose`]. Under Silo this is a safety net, since
    /// [`Sim::update_tenant_hose`] already runs on every active↔idle
    /// transition; under Oktopus it is the only place rates are set.
    pub(super) fn on_hose_epoch(&mut self) {
        let okto = self.okto();
        for ti in 0..self.tenants.len() {
            self.tenant_hose(ti as u16, okto);
        }
        let epoch = self.cfg.hose_epoch;
        self.push(self.now + epoch, Ev::HoseEpoch);
    }

    fn okto(&self) -> bool {
        matches!(self.cfg.mode, TransportMode::Okto | TransportMode::OktoPlus)
    }

    /// Recompute one tenant's pairwise hose rates after its set of
    /// active pairs changed: a connection turned active or idle, or the
    /// tenant departed or was re-admitted. Oktopus rates are static, so
    /// only the epoch sets them.
    pub(super) fn update_tenant_hose(&mut self, ti: u16) {
        if !self.okto() {
            self.tenant_hose(ti, false);
        }
    }

    /// Set one tenant's per-destination bucket rates (top of Fig. 8) to
    /// the [`hose_share`] of each pair, from one pass counting each VM's
    /// out- and in-degree over the pairs that share hoses.
    ///
    /// * Silo (EyeQ-style, `okto == false`): a pair shares while it has
    ///   data outstanding and crosses the NIC (zero-lag idealization of
    ///   the pacers' coordination messages). Idle pairs are reset to the
    ///   full hose `B`, so the burst allowance refills at the guaranteed
    ///   rate; bursts ride the bucket's capacity `S` whatever its refill
    ///   rate (§4.1: bursts are not destination limited).
    /// * Oktopus (`okto == true`): every cross-host pair that has ever
    ///   communicated shares, active or not, and every bucket keeps its
    ///   share — Oktopus's central rate computation has no
    ///   work-conserving feedback loop (paper §6.2: "VMs cannot burst").
    fn tenant_hose(&mut self, ti: u16, okto: bool) {
        let Sim {
            conns,
            conn_index,
            vms,
            tenants,
            tenant_vms,
            tenant_conns,
            hose_deg,
            now,
            ..
        } = self;
        let members = &tenant_vms[ti as usize];
        let Some(&base) = members.first() else {
            return;
        };
        let shares = |c: &TcpConn| c.src_host != c.dst_host && (okto || c.active());
        hose_deg.clear();
        hose_deg.resize(members.len(), (0, 0));
        for &ci in &tenant_conns[ti as usize] {
            let c = &conns[ci as usize];
            if shares(c) {
                hose_deg[(c.src_vm - base) as usize].0 += 1;
                hose_deg[(c.dst_vm - base) as usize].1 += 1;
            }
        }
        let now = *now;
        let b = tenants[ti as usize].b;
        for &vi in members {
            let out_deg = hose_deg[(vi - base) as usize].0 as usize;
            for (&d, tb) in vms[vi as usize].per_dst.iter_mut() {
                let share = hose_share(b, out_deg, hose_deg[(d - base) as usize].1 as usize);
                let r = if okto {
                    share
                } else if conn_index
                    .get(&(vi, d))
                    .is_some_and(|&ci| shares(&conns[ci as usize]))
                {
                    // 3% headroom: pair rates summing to exactly B would
                    // keep the VM's {B, S} bucket permanently saturated and
                    // its backlog random-walking upward (EyeQ similarly
                    // converges slightly below the hose).
                    0.97 * share
                } else {
                    tb.set_rate(now, b);
                    continue;
                };
                tb.set_rate(now, Rate::from_bps(r.max(1e6) as u64));
            }
        }
    }
}

package faults

import "spritefs/internal/metrics"

// RegisterMetrics registers the injector's fault-schedule accounting into
// the central registry: what was injected, what data it destroyed, and how
// the recovery protocol fared. One injector drives the whole cluster, so
// these families are unlabeled singletons.
func (inj *Injector) RegisterMetrics(r *metrics.Registry) {
	ctr := func(name, unit, help string, v *int64) {
		r.IntVar(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter}, nil, v)
	}
	ctr("spritefs_faults_server_crashes_total", "crashes",
		"Server crash+restart events fired by the schedule.", &inj.st.ServerCrashes)
	ctr("spritefs_faults_client_crashes_total", "crashes",
		"Workstation crash events fired by the schedule.", &inj.st.ClientCrashes)
	ctr("spritefs_faults_partitions_total", "events",
		"Network partition windows opened.", &inj.st.Partitions)
	ctr("spritefs_faults_delay_windows_total", "events",
		"Latency-inflation windows opened.", &inj.st.DelayWindows)
	ctr("spritefs_faults_drop_windows_total", "events",
		"Packet-drop windows opened.", &inj.st.DropWindows)
	ctr("spritefs_faults_skipped_total", "events",
		"Scheduled events whose target did not exist at fire time.", &inj.st.Skipped)
	ctr("spritefs_faults_server_dirty_lost_bytes_total", "bytes",
		"Un-synced server-cache bytes destroyed by server crashes.", &inj.st.ServerDirtyLost)
	ctr("spritefs_faults_client_dirty_lost_bytes_total", "bytes",
		"Client delayed-write bytes destroyed by workstation crashes.", &inj.st.ClientDirtyLost)
	ctr("spritefs_faults_replayed_bytes_total", "bytes",
		"Dirty bytes replayed to restarted servers during driven recovery sweeps.", &inj.st.ReplayedBytes)
	r.SecondsVar(metrics.Desc{Name: "spritefs_faults_max_dirty_age_seconds",
		Help: "Age of the oldest dirty byte any injected crash destroyed — the delayed-write exposure bound.",
		Kind: metrics.Gauge},
		nil, &inj.st.MaxDirtyAge)
	r.Int(metrics.Desc{Name: "spritefs_faults_max_reopen_storm", Unit: "handles",
		Help: "Most handles re-registered against one server after a single restart.",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(inj.st.MaxReopenStorm) })
	r.SecondsVar(metrics.Desc{Name: "spritefs_faults_max_reconsistency_seconds",
		Help: "Worst crash-to-reconsistency interval across all injected server crashes.",
		Kind: metrics.Gauge},
		nil, &inj.st.MaxTimeToReconsistency)
}

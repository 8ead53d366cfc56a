package sched

import (
	"encoding/json"
	"io"

	"repro/internal/stream"
)

// jsonSchedule is the stable export schema for external tooling (plotting,
// notebooks). It carries the per-slice outcomes and the per-step series;
// None times are exported as null.
type jsonSchedule struct {
	Algorithm string      `json:"algorithm"`
	Params    Params      `json:"params"`
	Slices    []jsonSlice `json:"slices"`
	Series    jsonSeries  `json:"series"`
	Metrics   jsonMetrics `json:"metrics"`
}

type jsonSlice struct {
	ID        int     `json:"id"`
	Arrival   int     `json:"arrival"`
	Size      int     `json:"size"`
	Weight    float64 `json:"weight"`
	SendStart *int    `json:"sendStart"`
	SendEnd   *int    `json:"sendEnd"`
	PlayTime  *int    `json:"playTime"`
	DropTime  *int    `json:"dropTime"`
	DropSite  string  `json:"dropSite"`
}

type jsonSeries struct {
	SentPerStep []int `json:"sentPerStep"`
	ServerOcc   []int `json:"serverOcc"`
	ClientOcc   []int `json:"clientOcc"`
}

type jsonMetrics struct {
	Throughput   int     `json:"throughput"`
	Benefit      float64 `json:"benefit"`
	ByteLoss     float64 `json:"byteLoss"`
	WeightedLoss float64 `json:"weightedLoss"`
	ServerReq    int     `json:"serverBufferRequirement"`
	ClientReq    int     `json:"clientBufferRequirement"`
	LinkReq      int     `json:"linkRateRequirement"`
}

func optTime(t int) *int {
	if t == None {
		return nil
	}
	return &t
}

// WriteJSON exports the schedule in a stable JSON schema for external
// tooling. The export is lossless with respect to outcomes and series;
// derived metrics are included for convenience.
func (s *Schedule) WriteJSON(w io.Writer) error {
	out := jsonSchedule{
		Algorithm: s.Algorithm,
		Params:    s.Params,
		Series: jsonSeries{
			SentPerStep: s.SentPerStep,
			ServerOcc:   s.ServerOcc,
			ClientOcc:   s.ClientOcc,
		},
		Metrics: jsonMetrics{
			Throughput:   s.Throughput(),
			Benefit:      s.Benefit(),
			ByteLoss:     s.ByteLoss(),
			WeightedLoss: s.WeightedLoss(),
			ServerReq:    s.ServerBufferRequirement(),
			ClientReq:    s.ClientBufferRequirement(),
			LinkReq:      s.LinkRateRequirement(),
		},
	}
	out.Slices = make([]jsonSlice, 0, s.Stream.Len())
	s.Walk(func(o Outcome, r stream.Run) {
		for id := r.First; id < r.End(); id++ {
			out.Slices = append(out.Slices, jsonSlice{
				ID:        id,
				Arrival:   r.Arrival,
				Size:      r.Size,
				Weight:    r.Weight,
				SendStart: optTime(o.SendStart),
				SendEnd:   optTime(o.SendEnd),
				PlayTime:  optTime(o.PlayTime),
				DropTime:  optTime(o.DropTime),
				DropSite:  o.DropSite.String(),
			})
		}
	})
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

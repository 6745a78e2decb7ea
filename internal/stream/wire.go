package stream

import (
	"encoding/json"
	"fmt"

	"entangled/internal/eq"
)

// eventJSON is the wire shape of an Event: the kind as its tag string
// ("join"/"leave"), so session journals (internal/persist) stay
// greppable and the decoder rejects unknown kinds instead of silently
// zeroing them.
type eventJSON struct {
	Kind  string    `json:"k"`
	Query *eq.Query `json:"q,omitempty"`
	ID    string    `json:"id,omitempty"`
}

// MarshalJSON encodes the event for journals and wires.
func (e Event) MarshalJSON() ([]byte, error) {
	switch e.Kind {
	case JoinEvent:
		return json.Marshal(eventJSON{Kind: "join", Query: &e.Query})
	case LeaveEvent:
		return json.Marshal(eventJSON{Kind: "leave", ID: e.ID})
	}
	return nil, fmt.Errorf("stream: encoding unknown event kind %d", e.Kind)
}

// UnmarshalJSON decodes the event wire shape.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w eventJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	switch w.Kind {
	case "join":
		if w.Query == nil {
			return fmt.Errorf("stream: join event without a query")
		}
		if err := w.Query.CheckRels(); err != nil {
			return err
		}
		*e = Event{Kind: JoinEvent, Query: *w.Query}
	case "leave":
		if w.ID == "" {
			return fmt.Errorf("stream: leave event without an ID")
		}
		*e = Event{Kind: LeaveEvent, ID: w.ID}
	default:
		return fmt.Errorf("stream: unknown event kind %q", w.Kind)
	}
	return nil
}
